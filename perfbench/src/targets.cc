#include "perfbench/src/targets.h"

#include <functional>
#include <utility>

#include "bench/bench_common.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/kv/pilaf.h"
#include "src/kv/prism_kv.h"
#include "src/rs/abd_lock.h"
#include "src/rs/prism_rs.h"
#include "src/tx/farm.h"
#include "src/tx/prism_tx.h"
#include "src/workload/zipf.h"

namespace perfbench {
namespace {

using prism::Bytes;
using prism::ByteView;
using prism::Code;
using prism::Status;
using prism::sim::Task;
namespace check = prism::check;
namespace net = prism::net;
namespace obs = prism::obs;

// Id of the value preloaded under `key`: distinct per key, so a read that
// lands on the wrong key fails the check.
uint64_t LoadId(uint64_t key) { return 0x1100000000000000ull | key; }

Bytes ValueOf(uint64_t id) {
  Bytes v(kValueSize);
  for (size_t off = 0; off < kValueSize; off += 8) {
    prism::StoreU64(v.data() + off, id);
  }
  return v;
}

// Per-host pool of idle clients. An op leases a client for its whole
// duration, so no client runs two ops at once (PRISM-RS and PRISM-TX
// clients keep per-client on-NIC scratch; ABD-LOCK locks by client id).
// The pool grows to the peak number of concurrent ops on each host.
template <typename C>
class Leases {
 public:
  struct Lease {
    C* client;
    uint16_t id;
  };
  using Make = std::function<std::unique_ptr<C>(net::HostId, uint16_t)>;

  explicit Leases(Make make) : make_(std::move(make)) {}

  void SetHosts(std::vector<net::HostId> hosts) {
    hosts_ = std::move(hosts);
    idle_.assign(hosts_.size(), {});
  }

  Lease Acquire(size_t host) {
    std::vector<Lease>& idle = idle_[host];
    if (!idle.empty()) {
      const Lease l = idle.back();
      idle.pop_back();
      return l;
    }
    PRISM_CHECK_LT(next_id_, 0xffffu) << "client ids exhausted";
    const uint16_t id = next_id_++;
    clients_.push_back(make_(hosts_[host], id));
    return Lease{clients_.back().get(), id};
  }

  void Release(size_t host, Lease l) { idle_[host].push_back(l); }

  obs::TransportTally Tally() const {
    obs::TransportTally t;
    for (const auto& c : clients_) t += c->TransportTally();
    return t;
  }

  void FlushReclaim() {
    if constexpr (requires(C& c) { c.FlushReclaim(); }) {
      for (const auto& c : clients_) c->FlushReclaim();
    }
  }

 private:
  Make make_;
  std::vector<net::HostId> hosts_;
  std::vector<std::vector<Lease>> idle_;
  std::vector<std::unique_ptr<C>> clients_;
  uint16_t next_id_ = 1;
};

// Shared by the three app targets: value ids and torn-read detection.
class ValueBook {
 public:
  explicit ValueBook(Side side)
      : next_id_(side == Side::kPrism ? 0xA000000000000000ull
                                      : 0xB000000000000000ull) {}

  uint64_t NextWriteId() { return next_id_++; }

  // The id a read observed; counts a violation when the value is not one
  // this benchmark wrote or loaded whole.
  check::ValueId Observe(ByteView v) {
    if (v.size() != kValueSize) {
      torn_++;
      return check::kAbsent;
    }
    const uint64_t id = prism::LoadU64(v);
    for (size_t off = 8; off < kValueSize; off += 8) {
      if (prism::LoadU64(v, off) != id) {
        torn_++;
        break;
      }
    }
    return id;
  }

  // Check result for torn values, or ok.
  check::CheckResult TornCheck() const {
    check::CheckResult r;
    if (torn_ > 0) {
      r.ok = false;
      r.error = std::to_string(torn_) + " reads returned a torn or foreign value";
    }
    return r;
  }

 private:
  uint64_t next_id_;
  uint64_t torn_ = 0;
};

// ---- kv: 100 % GET over a preloaded store ----

template <typename Server, typename Client>
class KvTarget final : public Target {
 public:
  KvTarget(net::Fabric* fabric, std::unique_ptr<Server> server, Side side)
      : server_(std::move(server)),
        history_(fabric->simulator()),
        values_(side),
        leases_([fabric, s = server_.get()](net::HostId h, uint16_t) {
          return std::make_unique<Client>(fabric, h, s);
        }) {
    for (uint64_t k = 0; k < kKvKeys; ++k) {
      const Status s = server_->LoadKey(
          prism::BytesOfString(prism::bench::KeyOf(k)), ValueOf(LoadId(k)));
      PRISM_CHECK(s.ok()) << s;
      // The load is the key's first write, completed before any op.
      history_.End(history_.Begin(0, k, check::OpType::kWrite, LoadId(k)),
                   check::Outcome::kOk);
    }
  }

  std::vector<OpClassSpec> Classes() const override { return {{"kv.get", 1.0}}; }
  void Prepare(std::vector<net::HostId> hosts) override {
    leases_.SetHosts(std::move(hosts));
  }

  Task<OpOutcome> Execute(size_t, size_t host, uint64_t draw) override {
    const uint64_t key = draw % kKvKeys;
    const std::string k = prism::bench::KeyOf(key);
    const auto lease = leases_.Acquire(host);
    const size_t h = history_.Begin(lease.id, key, check::OpType::kRead);
    auto r = co_await lease.client->Get(k);
    leases_.Release(host, lease);
    if (!r.ok()) {
      history_.End(h, check::Outcome::kFailed);
      co_return OpOutcome::kError;
    }
    history_.End(h, check::Outcome::kOk, values_.Observe(*r));
    co_return OpOutcome::kOk;
  }

  obs::TransportTally Tally() const override { return leases_.Tally(); }
  void FlushReclaim() override { leases_.FlushReclaim(); }
  check::CheckResult Check() const override {
    check::CheckResult r = values_.TornCheck();
    if (!r.ok) return r;
    return check::CheckLinearizable(history_.ops(), check::kAbsent);
  }
  size_t HistoryOps() const override { return history_.size(); }
  uint64_t StoreKeys() const override { return kKvKeys; }

 private:
  std::unique_ptr<Server> server_;
  check::HistoryRecorder history_;
  ValueBook values_;
  Leases<Client> leases_;
};

// ---- rs: 50 % PUT / 50 % GET over blocks loaded through client Puts ----

template <typename Cluster, typename Client>
class RsTarget final : public Target {
 public:
  RsTarget(net::Fabric* fabric, std::unique_ptr<Cluster> cluster, Side side,
           std::function<std::unique_ptr<Client>(Cluster*, net::HostId,
                                                 uint16_t)>
               make)
      : sim_(fabric->simulator()),
        cluster_(std::move(cluster)),
        history_(fabric->simulator()),
        values_(side),
        leases_([c = cluster_.get(), make = std::move(make)](
                    net::HostId h, uint16_t id) { return make(c, h, id); }) {}

  std::vector<OpClassSpec> Classes() const override {
    return {{"rs.put", 0.5}, {"rs.get", 0.5}};
  }

  // Writes LoadId(b) to every block b, one loader per client host, and
  // records each load as a completed write, so a read served from the
  // wrong block (or a lost load) fails the check.
  void Prepare(std::vector<net::HostId> hosts) override {
    const size_t n_hosts = hosts.size();
    leases_.SetHosts(std::move(hosts));
    for (size_t h = 0; h < n_hosts; ++h) {
      prism::sim::Spawn([this, h, n_hosts]() -> Task<void> {
        const auto lease = leases_.Acquire(h);
        for (uint64_t b = h; b < kRsBlocks; b += n_hosts) {
          const size_t op =
              history_.Begin(lease.id, b, check::OpType::kWrite, LoadId(b));
          const Status s = co_await lease.client->Put(b, ValueOf(LoadId(b)));
          PRISM_CHECK(s.ok()) << "loading block " << b << ": " << s;
          history_.End(op, check::Outcome::kOk);
        }
        leases_.Release(h, lease);
      });
    }
    sim_->Run();
    leases_.FlushReclaim();
    sim_->Run();
  }

  Task<OpOutcome> Execute(size_t cls, size_t host, uint64_t draw) override {
    const uint64_t block = draw % kRsBlocks;
    const auto lease = leases_.Acquire(host);
    OpOutcome out = OpOutcome::kOk;
    if (cls == 0) {
      const uint64_t id = values_.NextWriteId();
      const size_t h = history_.Begin(lease.id, block, check::OpType::kWrite, id);
      Bytes v = ValueOf(id);
      const Status s = co_await lease.client->Put(block, std::move(v));
      // A failed put may still have reached some replicas.
      history_.End(h, s.ok() ? check::Outcome::kOk
                             : check::Outcome::kIndeterminate);
      if (!s.ok()) out = OpOutcome::kError;
    } else {
      const size_t h = history_.Begin(lease.id, block, check::OpType::kRead);
      auto r = co_await lease.client->Get(block);
      if (r.ok()) {
        history_.End(h, check::Outcome::kOk, values_.Observe(*r));
      } else {
        history_.End(h, check::Outcome::kFailed);
        out = OpOutcome::kError;
      }
    }
    leases_.Release(host, lease);
    co_return out;
  }

  obs::TransportTally Tally() const override { return leases_.Tally(); }
  void FlushReclaim() override { leases_.FlushReclaim(); }
  check::CheckResult Check() const override {
    check::CheckResult r = values_.TornCheck();
    if (!r.ok) return r;
    // Blocks start as zeroes (id 0); Prepare's loads overwrite every one.
    return check::CheckLinearizable(history_.ops(), 0);
  }
  size_t HistoryOps() const override { return history_.size(); }
  uint64_t StoreKeys() const override { return kRsBlocks; }

 private:
  prism::sim::Simulator* sim_;
  std::unique_ptr<Cluster> cluster_;
  check::HistoryRecorder history_;
  ValueBook values_;
  Leases<Client> leases_;
};

// ---- tx: YCSB-T read-modify-write, Zipf keys ----

// Values are recorded by check::IdOf (a hash of the 512 B value), the ids
// PRISM-TX's own history recording uses.
check::ValueId TxLoadValue(uint64_t key) {
  return check::IdOf(ValueOf(LoadId(key)));
}

template <typename Cluster, typename Client>
class TxTarget final : public Target {
 public:
  // PRISM-TX records its own reads, writes and outcomes (set_history): only
  // it can tell a validation abort, which installs nothing, from a failed
  // install, which may have installed some writes. FaRM has no recorder;
  // its transactions are recorded here, and its aborts come before its
  // update phase, so they install nothing.
  static constexpr bool kClientRecords =
      requires(Client& c, check::TxHistoryRecorder* h) { c.set_history(h); };

  TxTarget(net::Fabric* fabric, std::unique_ptr<Cluster> cluster, Side side)
      : cluster_(std::move(cluster)),
        history_(fabric->simulator()),
        values_(side),
        chooser_(kTxKeys, kTxZipfTheta),
        leases_([fabric, c = cluster_.get(), history = &history_](
                    net::HostId h, uint16_t id) {
          auto client = std::make_unique<Client>(fabric, h, c, id);
          if constexpr (kClientRecords) client->set_history(history);
          return client;
        }) {
    for (uint64_t k = 0; k < kTxKeys; ++k) {
      const Status s = cluster_->LoadKey(k, ValueOf(LoadId(k)));
      PRISM_CHECK(s.ok()) << s;
    }
  }

  std::vector<OpClassSpec> Classes() const override { return {{"tx.rmw", 1.0}}; }
  void Prepare(std::vector<net::HostId> hosts) override {
    leases_.SetHosts(std::move(hosts));
  }

  Task<OpOutcome> Execute(size_t, size_t host, uint64_t draw) override {
    prism::Rng rng(draw);
    const uint64_t key = chooser_.Next(rng);
    const auto lease = leases_.Acquire(host);
    size_t t = 0;
    if constexpr (!kClientRecords) t = history_.BeginTxn(lease.id);
    prism::tx::Transaction txn = lease.client->Begin();
    auto v = co_await lease.client->Read(txn, key);
    if (!v.ok()) {
      leases_.Release(host, lease);
      // Nothing written yet.
      if constexpr (!kClientRecords) {
        history_.EndTxn(t, check::TxOutcome::kAborted);
      }
      co_return v.status().code() == Code::kAborted ? OpOutcome::kAborted
                                                    : OpOutcome::kError;
    }
    values_.Observe(*v);
    Bytes w = ValueOf(values_.NextWriteId());
    if constexpr (!kClientRecords) {
      history_.RecordRead(t, key, check::IdOf(*v));
      history_.RecordWrite(t, key, check::IdOf(w));
    }
    lease.client->Write(txn, key, std::move(w));
    const Status s = co_await lease.client->Commit(txn);
    leases_.Release(host, lease);
    if constexpr (!kClientRecords) {
      history_.EndTxn(t, s.ok() ? check::TxOutcome::kCommitted
                         : s.code() == Code::kAborted
                             ? check::TxOutcome::kAborted
                             : check::TxOutcome::kIndeterminate);
    }
    if (s.ok()) co_return OpOutcome::kOk;
    co_return s.code() == Code::kAborted ? OpOutcome::kAborted
                                         : OpOutcome::kError;
  }

  obs::TransportTally Tally() const override { return leases_.Tally(); }
  void FlushReclaim() override { leases_.FlushReclaim(); }
  check::CheckResult Check() const override {
    check::CheckResult r = values_.TornCheck();
    if (!r.ok) return r;
    std::vector<std::pair<uint64_t, check::ValueId>> initial;
    initial.reserve(kTxKeys);
    for (uint64_t k = 0; k < kTxKeys; ++k) {
      initial.emplace_back(k, TxLoadValue(k));
    }
    return check::CheckReadCommitted(history_.txns(), initial);
  }
  size_t HistoryOps() const override { return history_.txns().size(); }
  uint64_t StoreKeys() const override { return kTxKeys; }

 private:
  std::unique_ptr<Cluster> cluster_;
  check::TxHistoryRecorder history_;
  ValueBook values_;
  prism::workload::KeyChooser chooser_;
  Leases<Client> leases_;
};

std::unique_ptr<Target> MakeKv(Side side, net::Fabric* fabric) {
  if (side == Side::kPrism) {
    prism::kv::PrismKvOptions o;
    o.n_buckets = kKvKeys;
    o.n_buffers = kKvKeys + 4096;
    o.dense_key_hash = true;
    auto server = std::make_unique<prism::kv::PrismKvServer>(
        fabric, fabric->AddHost("kv-server"), o);
    return std::make_unique<
        KvTarget<prism::kv::PrismKvServer, prism::kv::PrismKvClient>>(
        fabric, std::move(server), side);
  }
  prism::kv::PilafOptions o;
  o.n_buckets = kKvKeys;
  o.n_extents = kKvKeys + 4096;
  o.backend = prism::rdma::Backend::kHardwareNic;
  o.dense_key_hash = true;
  auto server = std::make_unique<prism::kv::PilafServer>(
      fabric, fabric->AddHost("pilaf-server"), o);
  return std::make_unique<KvTarget<prism::kv::PilafServer, prism::kv::PilafClient>>(
      fabric, std::move(server), side);
}

std::unique_ptr<Target> MakeRs(Side side, net::Fabric* fabric, uint64_t seed) {
  if (side == Side::kPrism) {
    prism::rs::PrismRsOptions o;
    o.n_blocks = kRsBlocks;
    o.block_size = kValueSize;
    o.buffers_per_replica = kRsBlocks + 8192;
    using Cluster = prism::rs::PrismRsCluster;
    using Client = prism::rs::PrismRsClient;
    return std::make_unique<RsTarget<Cluster, Client>>(
        fabric, std::make_unique<Cluster>(fabric, kRsReplicas, o), side,
        [fabric](Cluster* c, net::HostId h, uint16_t id) {
          return std::make_unique<Client>(fabric, h, c, id);
        });
  }
  prism::rs::AbdLockOptions o;
  o.n_blocks = kRsBlocks;
  o.block_size = kValueSize;
  o.backend = prism::rdma::Backend::kHardwareNic;
  using Cluster = prism::rs::AbdLockCluster;
  using Client = prism::rs::AbdLockClient;
  return std::make_unique<RsTarget<Cluster, Client>>(
      fabric, std::make_unique<Cluster>(fabric, kRsReplicas, o), side,
      [fabric, seed](Cluster* c, net::HostId h, uint16_t id) {
        return std::make_unique<Client>(fabric, h, c, id, seed * 31 + id);
      });
}

std::unique_ptr<Target> MakeTx(Side side, net::Fabric* fabric) {
  if (side == Side::kPrism) {
    prism::tx::PrismTxOptions o;
    o.keys_per_shard = kTxKeys;
    o.value_size = kValueSize;
    o.buffers_per_shard = kTxKeys + 8192;
    using Cluster = prism::tx::PrismTxCluster;
    return std::make_unique<TxTarget<Cluster, prism::tx::PrismTxClient>>(
        fabric, std::make_unique<Cluster>(fabric, /*n_shards=*/1, o), side);
  }
  prism::tx::FarmOptions o;
  o.keys_per_shard = kTxKeys;
  o.value_size = kValueSize;
  o.backend = prism::rdma::Backend::kHardwareNic;
  using Cluster = prism::tx::FarmCluster;
  return std::make_unique<TxTarget<Cluster, prism::tx::FarmClient>>(
      fabric, std::make_unique<Cluster>(fabric, /*n_shards=*/1, o), side);
}

}  // namespace

std::unique_ptr<Target> MakeTarget(App app, Side side, net::Fabric* fabric,
                                   uint64_t seed) {
  switch (app) {
    case App::kKv:
      return MakeKv(side, fabric);
    case App::kRs:
      return MakeRs(side, fabric, seed);
    case App::kTx:
      return MakeTx(side, fabric);
  }
  return nullptr;
}

}  // namespace perfbench
