#include "src/explore/workloads.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/chaos/chaos.h"
#include "src/check/checker.h"
#include "src/check/history.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/consensus/consensus.h"
#include "src/explore/oracle.h"
#include "src/explore/toy_replica.h"
#include "src/kv/prism_kv.h"
#include "src/net/fabric.h"
#include "src/obs/obs.h"
#include "src/rs/prism_rs.h"
#include "src/sim/task.h"
#include "src/sync/sync.h"
#include "src/tx/prism_tx.h"

namespace prism::explore {

namespace {

using sim::Task;

const char* kWorkloadNames[] = {"toy",        "rs",         "kv",
                                "tx",         "sync_spin",  "sync_opt",
                                "sync_lease", "sync_prism", "sync_buggy",
                                "consensus",  "consensus_buggy"};
constexpr int kWorkloadCount =
    static_cast<int>(sizeof(kWorkloadNames) / sizeof(kWorkloadNames[0]));

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t Fingerprint(const check::HistoryRecorder& history) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const check::Op& op : history.ops()) {
    h = HashCombine(h, static_cast<uint64_t>(op.client));
    h = HashCombine(h, op.key);
    h = HashCombine(h, static_cast<uint64_t>(op.type));
    h = HashCombine(h, op.value);
    h = HashCombine(h, static_cast<uint64_t>(op.invoke));
    h = HashCombine(h, static_cast<uint64_t>(op.done ? op.response : -1));
    h = HashCombine(h, static_cast<uint64_t>(op.outcome));
  }
  return h;
}

uint64_t Fingerprint(const check::TxHistoryRecorder& history) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const check::TxnRecord& t : history.txns()) {
    h = HashCombine(h, static_cast<uint64_t>(t.client));
    h = HashCombine(h, static_cast<uint64_t>(t.outcome));
    h = HashCombine(h, static_cast<uint64_t>(t.begin));
    h = HashCombine(h, static_cast<uint64_t>(t.done ? t.end : -1));
    for (const auto& [k, v] : t.reads) {
      h = HashCombine(h, k);
      h = HashCombine(h, v);
    }
    for (const auto& [k, v] : t.writes) {
      h = HashCombine(h, k);
      h = HashCombine(h, v);
    }
  }
  return h;
}

void Fail(RunOutcome* out, const char* check_name, std::string error) {
  out->ok = false;
  out->check_name = check_name;
  out->error = std::move(error);
}

// Linearizability of a register history; fails `out` on a violation.
bool Linearizable(const std::vector<check::Op>& ops, check::ValueId initial,
                  RunOutcome* out) {
  check::CheckResult lin = check::CheckLinearizable(ops, initial);
  if (!lin.ok) Fail(out, "linearizability", std::move(lin.error));
  return lin.ok;
}

// The differential oracle (oracle.h) on the quiescent final reads.
void FinalStateMatches(const std::vector<check::Op>& ops,
                       const std::vector<FinalRead>& finals,
                       check::ValueId initial, RunOutcome* out) {
  check::CheckResult diff = DiffFinalState(ops, finals, initial);
  if (!diff.ok) Fail(out, "final-state", std::move(diff.error));
}

void CheckRegisters(const std::vector<check::Op>& ops,
                    const std::vector<FinalRead>& finals,
                    check::ValueId initial, RunOutcome* out) {
  if (Linearizable(ops, initial, out)) {
    FinalStateMatches(ops, finals, initial, out);
  }
}

// One run's simulation: the simulator with the schedule hook installed
// before any event exists (SetScheduleHook checks this), the fabric, and
// the observability the options ask for.
struct Rig {
  explicit Rig(const WorkloadOptions& o)
      : opts(o),
        fabric(&sim, net::CostModel::EvalCluster40G(), /*loss_seed=*/o.seed) {
    if (o.hook != nullptr) sim.SetScheduleHook(o.hook);
    if (!o.trace_path.empty()) fabric.obs().SetTracer(&tracer);
  }

  // Stamps the event count and harvests the metrics and the trace.
  RunOutcome Finish(RunOutcome out) {
    out.executed_events = sim.executed_events();
    if (opts.metrics) out.metrics = fabric.obs().metrics().Snapshot().ToText();
    if (!opts.trace_path.empty()) {
      out.trace_written =
          tracer.WriteChromeJson(opts.trace_path, fabric.HostNames());
    }
    return out;
  }

  const WorkloadOptions& opts;
  obs::Tracer tracer;
  sim::Simulator sim;
  net::Fabric fabric;
};

// ---- toy: buggy primary/backup register, no chaos ----

RunOutcome RunToy(const WorkloadOptions& opts) {
  sim::Simulator sim;
  if (opts.hook != nullptr) sim.SetScheduleHook(opts.hook);
  check::HistoryRecorder history(&sim);
  ToyReplica toy(&sim, &history, ToyReplica::Options{});
  sim::TaskTracker tracker;
  toy.SpawnClients(opts.seed, &tracker);
  sim.Run();

  RunOutcome out;
  out.executed_events = sim.executed_events();
  out.history_fingerprint = Fingerprint(history);
  if (tracker.live() > 0) {
    Fail(&out, "hang", "toy clients still live after the sim drained");
    return out;
  }
  std::vector<FinalRead> finals;
  for (uint64_t k = 0; k < toy.keys(); ++k) {
    finals.push_back({k, toy.FinalValue(k)});
  }
  CheckRegisters(history.ops(), finals, ToyReplica::kInitial, &out);
  return out;
}

// ---- the checked chaos run ----
//
// RS, KV, TX and consensus share RunChaos: three history-recording clients
// on their own hosts; the default ChaosOptions over the stack's crashable
// hosts (at most one down at a time, f = 1), with partitions among those
// and the client hosts; Stack::kOps ops per client with 100–600 µs think
// times; the hang check; the history fingerprint; the quiescent final
// reads; and the stack's checkers. A stack adapter supplies
//
//   History                  the recorder its clients write
//   Stack(fabric, seed)      builds the servers (their hosts come first)
//   crashable()              the hosts the monkey may crash
//   AddClient(host, c, h)    makes client c, recording into h
//   Issue(c, rng, i)         client c's op i; true iff it returned ok
//   ReadFinal()              reads every key once the run is quiescent
//   Check(history, out)      the stack's checkers
//
// and overrides Drained() and failovers() when it spawns protocol tasks of
// its own.

constexpr int kChaosClients = 3;

struct ChaosStack {
  bool Drained() { return true; }
  uint64_t failovers() const { return 0; }
};

template <typename Stack>
RunOutcome RunChaos(const WorkloadOptions& opts) {
  Rig rig(opts);
  Stack stack(&rig.fabric, opts.seed);
  typename Stack::History history(&rig.sim);
  std::vector<net::HostId> client_hosts;
  for (int c = 0; c < kChaosClients; ++c) {
    client_hosts.push_back(rig.fabric.AddHost("client" + std::to_string(c)));
    stack.AddClient(client_hosts.back(), c, &history);
  }

  chaos::ChaosOptions copts;
  copts.seed = opts.seed;
  copts.crashable = stack.crashable();
  copts.partition_hosts = copts.crashable;
  copts.partition_hosts.insert(copts.partition_hosts.end(),
                               client_hosts.begin(), client_hosts.end());
  chaos::ChaosMonkey monkey(&rig.fabric, copts);
  if (opts.disabled_windows != nullptr) {
    for (int w : *opts.disabled_windows) {
      if (w >= 0 && w < monkey.window_count()) {
        monkey.SetWindowDisabled(w, true);
      }
    }
  }
  monkey.Arm();

  sim::TaskTracker clients;
  uint64_t ok_ops = 0;
  for (int c = 0; c < kChaosClients; ++c) {
    sim::Spawn(
        [&, c]() -> Task<void> {
          Rng rng(opts.seed * 977 + static_cast<uint64_t>(c));
          for (int i = 0; i < Stack::kOps; ++i) {
            if (co_await stack.Issue(c, rng, i)) ++ok_ops;
            co_await sim::SleepFor(&rig.sim,
                                   sim::Micros(rng.NextInRange(100, 600)));
          }
        },
        &clients);
  }
  rig.sim.Run();

  RunOutcome out;
  out.fault_windows = monkey.window_count();
  out.fault_schedule = monkey.Describe();
  out.faults = monkey.crashes_injected() + monkey.partitions_injected() +
               monkey.loss_bursts_injected() + monkey.latency_spikes_injected();
  out.failovers = stack.failovers();
  out.ok_ops = ok_ops;
  out.history_fingerprint = Fingerprint(history);
  const std::string name = WorkloadName(opts.kind);
  if (clients.live() > 0 || !stack.Drained()) {
    Fail(&out, "hang", name + " clients still live after the sim drained");
    return rig.Finish(std::move(out));
  }
  // Every fault healed by the chaos horizon, so fresh reads probe the
  // system's final state.
  sim::TaskTracker final_reads;
  sim::Spawn(stack.ReadFinal(), &final_reads);
  rig.sim.Run();
  if (final_reads.live() > 0 || !stack.Drained()) {
    Fail(&out, "hang", name + " final reads still live after the sim drained");
  } else {
    stack.Check(history, &out);
  }
  return rig.Finish(std::move(out));
}

// PRISM-RS: 3 replicas (hosts 0..2) that crash without losing memory, as
// ABD assumes. Each op Puts or Gets one of 4 blocks.
class RsStack : public ChaosStack {
 public:
  using History = check::HistoryRecorder;
  static constexpr int kOps = 10;

  RsStack(net::Fabric* fabric, uint64_t seed)
      : fabric_(fabric), seed_(seed), cluster_(fabric, 3, Options()) {}

  std::vector<net::HostId> crashable() const { return {0, 1, 2}; }
  void AddClient(net::HostId host, int c, History* history) {
    clients_.push_back(std::make_unique<rs::PrismRsClient>(
        fabric_, host, &cluster_, static_cast<uint16_t>(c + 1)));
    clients_.back()->set_history(history);
  }
  Task<bool> Issue(int c, Rng& rng, int i) {
    const uint64_t block = rng.NextBelow(kBlocks);
    if (rng.NextBool(0.5)) {
      Status put = co_await clients_[c]->Put(
          block, UniqueValue(kBlockSize, seed_, c, i));
      co_return put.ok();
    }
    auto got = co_await clients_[c]->Get(block);
    co_return got.ok();
  }
  Task<void> ReadFinal() {
    for (auto& client : clients_) client->set_history(nullptr);
    for (uint64_t b = 0; b < kBlocks; ++b) {
      auto got = co_await clients_[0]->Get(b);
      if (got.ok()) finals_.push_back({b, check::IdOf(got.value())});
    }
  }
  void Check(const History& history, RunOutcome* out) const {
    CheckRegisters(history.ops(), finals_,
                   check::IdOf(Bytes(kBlockSize, 0)), out);
  }

 private:
  static constexpr uint64_t kBlocks = 4;
  static constexpr uint64_t kBlockSize = 64;

  static rs::PrismRsOptions Options() {
    rs::PrismRsOptions opts;
    opts.n_blocks = kBlocks;
    opts.block_size = kBlockSize;
    opts.buffers_per_replica = 512;
    return opts;
  }

  net::Fabric* fabric_;
  uint64_t seed_;
  rs::PrismRsCluster cluster_;
  std::vector<std::unique_ptr<rs::PrismRsClient>> clients_;
  std::vector<FinalRead> finals_;
};

// PRISM-KV: one server (host 0) that crash/restarts with durable DRAM.
// Each op Puts, Gets or Deletes one of 4 keys.
class KvStack : public ChaosStack {
 public:
  using History = check::HistoryRecorder;
  static constexpr int kOps = 12;

  KvStack(net::Fabric* fabric, uint64_t seed)
      : fabric_(fabric),
        seed_(seed),
        server_host_(fabric->AddHost("server")),
        server_(fabric, server_host_, Options()) {}

  std::vector<net::HostId> crashable() const { return {server_host_}; }
  void AddClient(net::HostId host, int c, History* history) {
    clients_.push_back(
        std::make_unique<kv::PrismKvClient>(fabric_, host, &server_));
    clients_.back()->set_history(history, c + 1);
  }
  Task<bool> Issue(int c, Rng& rng, int i) {
    const std::string key = KeyName(rng.NextBelow(kKeys));
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      Status put = co_await clients_[c]->Put(
          key, UniqueValue(kValueSize, seed_, c, i));
      co_return put.ok();
    }
    if (dice < 0.85) {
      auto got = co_await clients_[c]->Get(key);
      co_return got.ok();
    }
    Status del = co_await clients_[c]->Delete(key);
    co_return del.ok();
  }
  Task<void> ReadFinal() {
    for (auto& client : clients_) client->set_history(nullptr, 0);
    for (uint64_t k = 0; k < kKeys; ++k) {
      const std::string key = KeyName(k);
      const check::ValueId id = check::IdOf(ByteView(
          reinterpret_cast<const uint8_t*>(key.data()), key.size()));
      auto got = co_await clients_[0]->Get(key);
      if (got.ok()) {
        finals_.push_back({id, check::IdOf(got.value())});
      } else if (got.code() == Code::kNotFound) {
        finals_.push_back({id, check::kAbsent});
      }  // other errors: no conclusion about this key
    }
  }
  void Check(const History& history, RunOutcome* out) const {
    CheckRegisters(history.ops(), finals_, check::kAbsent, out);
  }

 private:
  static constexpr uint64_t kKeys = 4;
  static constexpr size_t kValueSize = 32;

  static std::string KeyName(uint64_t k) { return "key-" + std::to_string(k); }
  static kv::PrismKvOptions Options() {
    kv::PrismKvOptions opts;
    opts.n_buckets = 64;
    opts.n_buffers = 256;
    return opts;
  }

  net::Fabric* fabric_;
  uint64_t seed_;
  net::HostId server_host_;
  kv::PrismKvServer server_;
  std::vector<std::unique_ptr<kv::PrismKvClient>> clients_;
  std::vector<FinalRead> finals_;
};

// PRISM-TX: 2 shards (hosts 0..1) with durable crash/restart and 8 keys
// loaded with distinct nonzero values. Each op is one transaction that
// reads a key and writes another.
class TxStack : public ChaosStack {
 public:
  using History = check::TxHistoryRecorder;
  static constexpr int kOps = 8;

  TxStack(net::Fabric* fabric, uint64_t seed)
      : fabric_(fabric), seed_(seed), cluster_(fabric, 2, Options()) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      Bytes v(kValueSize, 0);
      v[0] = static_cast<uint8_t>(0xB0 + k);
      PRISM_CHECK(cluster_.LoadKey(k, v).ok());
      initial_.emplace_back(k, check::IdOf(v));
    }
  }

  std::vector<net::HostId> crashable() const { return {0, 1}; }
  void AddClient(net::HostId host, int c, History* history) {
    clients_.push_back(std::make_unique<tx::PrismTxClient>(
        fabric_, host, &cluster_, static_cast<uint16_t>(c + 1)));
    clients_.back()->set_history(history);
  }
  Task<bool> Issue(int c, Rng& rng, int i) {
    tx::Transaction txn = clients_[c]->Begin();
    const uint64_t rk = rng.NextBelow(kKeys);
    const uint64_t wk = rng.NextBelow(kKeys);
    (void)co_await clients_[c]->Read(txn, rk);
    // Writes are full-size: IndirectRead is unbounded in fixed mode, so a
    // shorter value would expose stale tail bytes.
    clients_[c]->Write(txn, wk, UniqueValue(kValueSize, seed_, c, i));
    Status commit = co_await clients_[c]->Commit(txn);
    co_return commit.ok();
  }
  // One more read-only transaction over every key, recorded in the same
  // history: CheckReadCommitted then validates the final state too, since
  // every value it observes must trace to a committed (or
  // indeterminately-committed) write.
  Task<void> ReadFinal() {
    tx::Transaction txn = clients_[0]->Begin();
    for (uint64_t k = 0; k < kKeys; ++k) {
      (void)co_await clients_[0]->Read(txn, k);
    }
    (void)co_await clients_[0]->Commit(txn);
  }
  void Check(const History& history, RunOutcome* out) const {
    check::CheckResult rc = check::CheckReadCommitted(history.txns(), initial_);
    if (!rc.ok) Fail(out, "read-committed", std::move(rc.error));
  }

 private:
  static constexpr uint64_t kKeys = 8;
  static constexpr size_t kValueSize = 32;

  static tx::PrismTxOptions Options() {
    tx::PrismTxOptions opts;
    opts.keys_per_shard = 16;
    opts.value_size = kValueSize;
    opts.buffers_per_shard = 256;
    return opts;
  }

  net::Fabric* fabric_;
  uint64_t seed_;
  tx::PrismTxCluster cluster_;
  std::vector<std::pair<uint64_t, check::ValueId>> initial_;
  std::vector<std::unique_ptr<tx::PrismTxClient>> clients_;
};

// Permission-guarded consensus: 3 replicas whose memory survives a crash
// (the Protected Memory Paxos memory-server model). Each op Puts or Gets
// one of keys 1..3, with retries and client-triggered failovers; the checks
// add the cross-replica log-safety oracle.
class ConsensusStack : public ChaosStack {
 public:
  using History = check::HistoryRecorder;
  static constexpr int kOps = 10;

  ConsensusStack(net::Fabric* fabric, uint64_t seed)
      : seed_(seed),
        hosts_(AddReplicaHosts(fabric)),
        cluster_(fabric, hosts_, consensus::ConsensusOptions{}) {}

  std::vector<net::HostId> crashable() const { return hosts_; }
  // The client's ops issue from the leader's host; its own host only
  // takes part in partitions.
  void AddClient(net::HostId, int c, History* history) {
    clients_.push_back(std::make_unique<consensus::ConsensusClient>(
        &cluster_, static_cast<uint16_t>(c + 1),
        seed_ * 131 + static_cast<uint64_t>(c)));
    clients_.back()->set_history(history, c + 1);
  }
  Task<bool> Issue(int c, Rng& rng, int i) {
    const uint64_t key = 1 + rng.NextBelow(kKeys);
    if (rng.NextBool(0.5)) {
      Status put =
          co_await clients_[c]->Put(key, consensus::MakeValue(seed_, c, i));
      co_return put.ok();
    }
    auto got = co_await clients_[c]->Get(key);
    co_return got.ok();
  }
  bool Drained() { return cluster_.tracker().live() == 0; }
  uint64_t failovers() const { return cluster_.failovers(); }
  // Through the linearizable Get path, off the client history.
  Task<void> ReadFinal() {
    for (auto& client : clients_) client->set_history(nullptr, 0);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      auto got = co_await clients_[0]->Get(k);
      if (got.ok()) {
        finals_.push_back({k, check::IdOf(*got)});
      } else if (got.code() == Code::kNotFound) {
        finals_.push_back({k, check::kAbsent});
      }  // other errors: no conclusion about this key
    }
  }
  void Check(const History& history, RunOutcome* out) const {
    if (!Linearizable(history.ops(), check::kAbsent, out)) return;
    std::string error;
    if (!CommittedPrefixesAgree(cluster_, &error)) {
      Fail(out, "log-safety", std::move(error));
      return;
    }
    FinalStateMatches(history.ops(), finals_, check::kAbsent, out);
  }

 private:
  static constexpr uint64_t kKeys = 3;

  static std::vector<net::HostId> AddReplicaHosts(net::Fabric* fabric) {
    std::vector<net::HostId> hosts;
    for (int i = 0; i < consensus::ConsensusOptions{}.n_replicas; ++i) {
      hosts.push_back(fabric->AddHost("replica" + std::to_string(i)));
    }
    return hosts;
  }

  uint64_t seed_;
  std::vector<net::HostId> hosts_;
  consensus::ConsensusCluster cluster_;
  std::vector<std::unique_ptr<consensus::ConsensusClient>> clients_;
  std::vector<FinalRead> finals_;
};

// ---- sync: one-sided synchronization schemes over the remote hash index.
// Chaos-free: the failure surface under study is schedule reordering. ----

sync::SyncScheme SchemeFor(Workload kind) {
  switch (kind) {
    case Workload::kSyncSpin:
      return sync::SyncScheme::kSpinlock;
    case Workload::kSyncOpt:
      return sync::SyncScheme::kOptimistic;
    case Workload::kSyncLease:
      return sync::SyncScheme::kLease;
    case Workload::kSyncPrism:
      return sync::SyncScheme::kPrismNative;
    default:
      return sync::SyncScheme::kUnfencedBuggy;
  }
}

RunOutcome RunSync(const WorkloadOptions& opts) {
  constexpr int kClients = 2;
  constexpr uint64_t kKeys = 2;
  constexpr int kOpsPerClient = 6;
  const uint64_t seed = opts.seed;

  Rig rig(opts);
  net::HostId server_host = rig.fabric.AddHost("index");
  sync::SyncOptions sopts;
  sopts.n_slots = 16;
  sync::SyncIndexServer server(&rig.fabric, server_host, sopts);
  const check::ValueId initial = check::IdOf(sync::InitialValue());
  for (uint64_t k = 1; k <= kKeys; ++k) {
    PRISM_CHECK(server.LoadKey(k, sync::InitialValue()).ok());
  }

  check::HistoryRecorder history(&rig.sim);
  std::vector<std::unique_ptr<sync::SyncClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    net::HostId h = rig.fabric.AddHost("client" + std::to_string(c));
    clients.push_back(std::make_unique<sync::SyncClient>(
        &rig.fabric, h, &server, SchemeFor(opts.kind),
        static_cast<uint16_t>(c + 1), seed * 131 + static_cast<uint64_t>(c)));
    clients[c]->set_history(&history, c + 1);
    // Steady-state geometry (probe paths are covered by sync_test and the
    // bench): every perturbation-budget step lands on the contended path.
    for (uint64_t k = 1; k <= kKeys; ++k) clients[c]->Prewarm(k);
  }

  sim::TaskTracker tracker;
  for (int c = 0; c < kClients; ++c) {
    sim::Spawn(
        [&, c]() -> Task<void> {
          Rng rng(seed * 977 + static_cast<uint64_t>(c));
          for (int i = 0; i < kOpsPerClient; ++i) {
            // Skewed contention: most ops collide on key 1, immediately.
            const uint64_t key =
                rng.NextBool(0.75) ? 1 : 1 + rng.NextBelow(kKeys);
            if (rng.NextBool(0.6)) {
              (void)co_await clients[c]->Update(
                  key, sync::MakeValue(seed, c, i));
            } else {
              (void)co_await clients[c]->Read(key);
            }
            co_await sim::SleepFor(&rig.sim,
                                   sim::Micros(rng.NextInRange(0, 6)));
          }
        },
        &tracker);
  }
  rig.sim.Run();

  RunOutcome out;
  out.history_fingerprint = Fingerprint(history);
  if (tracker.live() > 0) {
    Fail(&out, "hang", "sync clients still live after the sim drained");
    return rig.Finish(std::move(out));
  }
  // The index lives in one AddressSpace and the sim has drained, so
  // server-local loads ARE the quiescent final state — no extra reads.
  std::vector<FinalRead> finals;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    finals.push_back({k, server.FinalValue(k)});
  }
  CheckRegisters(history.ops(), finals, initial, &out);
  return rig.Finish(std::move(out));
}

// ---- consensus_buggy: the positive control ----
//
// Revocation without a quorum. Chaos-free scripted takeover — leader 0
// commits a baseline write, then a second write races a buggy election on
// node 2 (which proceeds on its own colocated grant alone, then heals the
// other replicas toward its shorter adopted log).
//
// On the canonical schedule the usurper's revoke reaches the shared replica
// ~0.5 µs before the deposed leader's commit chain (the chain is posted one
// sleep later), so the chain NACKs, the write ends indeterminate, and the
// trailing read is legal. Reordering the two deliveries flips the race: the
// chain commits on a quorum and is acknowledged, the late revoke deposes
// the leader anyway, the usurper's heal wipes the acknowledged entry, and
// the read returns the overwritten value — a lost update the Wing–Gong
// checker flags. Quorum intersection is exactly what rules this out in the
// correct protocol.
RunOutcome RunConsensusBuggy(const WorkloadOptions& opts) {
  const uint64_t seed = opts.seed;
  Rig rig(opts);
  consensus::ConsensusOptions copts;
  copts.require_revoke_quorum = false;  // the seeded protocol bug
  std::vector<net::HostId> hosts;
  for (int i = 0; i < copts.n_replicas; ++i) {
    hosts.push_back(rig.fabric.AddHost("replica" + std::to_string(i)));
  }
  consensus::ConsensusCluster cluster(&rig.fabric, hosts, copts);

  check::HistoryRecorder history(&rig.sim);
  consensus::ConsensusClient writer(&cluster, 1, seed * 131 + 1);
  consensus::ConsensusClient reader(&cluster, 2, seed * 131 + 2);
  writer.set_history(&history, 1);
  reader.set_history(&history, 2);
  // The overwrite must be issued BY the deposed leader, so it bypasses
  // client-side leader discovery (which would dutifully follow the hint to
  // the usurper) and goes straight to node 0's data path.
  consensus::ConsensusSession deposed(&cluster);

  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> Task<void> {
        // Node 0 leads; the late remote grants heal membership to 3/3.
        (void)co_await cluster.Failover(0, nullptr);
        co_await sim::SleepFor(&rig.sim, sim::Micros(60));
        (void)co_await writer.Put(1, consensus::MakeValue(seed, 0, 0));
        co_await sim::SleepFor(&rig.sim, sim::Micros(20));
        // The race: the buggy takeover starts now; the overwrite is posted
        // one beat later, so its chain canonically loses the delivery race
        // at the shared replicas; the read probes well after both settle.
        sim::Spawn(
            [&]() -> Task<void> {
              (void)co_await cluster.Failover(2, nullptr);
              co_await sim::SleepFor(&rig.sim, sim::Micros(20));
              (void)co_await reader.Get(1);
            },
            &tracker);
        sim::Spawn(
            [&]() -> Task<void> {
              co_await sim::SleepFor(&rig.sim, sim::Nanos(500));
              const Bytes v = consensus::MakeValue(seed, 0, 1);
              const size_t h = history.Begin(1, 1, check::OpType::kWrite,
                                             check::IdOf(v));
              auto out = co_await deposed.PutOn(0, 1, v, nullptr);
              history.End(h, out.status.ok()
                                 ? check::Outcome::kOk
                                 : out.applied ==
                                           consensus::ConsensusNode::Applied::
                                               kMaybe
                                       ? check::Outcome::kIndeterminate
                                       : check::Outcome::kFailed);
            },
            &tracker);
      },
      &tracker);
  rig.sim.Run();

  RunOutcome out;
  out.history_fingerprint = Fingerprint(history);
  if (tracker.live() > 0 || cluster.tracker().live() > 0) {
    Fail(&out, "hang", "consensus tasks still live after the sim drained");
  } else {
    Linearizable(history.ops(), check::kAbsent, &out);
  }
  return rig.Finish(std::move(out));
}

}  // namespace

sim::Duration DefaultDelta(Workload kind) {
  switch (kind) {
    case Workload::kSyncSpin:
    case Workload::kSyncOpt:
    case Workload::kSyncLease:
    case Workload::kSyncPrism:
    case Workload::kSyncBuggy:
      // Sync races span a few fabric hops (post → deliver → NIC → effect),
      // each a distinct event: a ~µs window lets a handful of reorder
      // decisions compound across one critical-section handoff.
      return sim::Micros(2);
    case Workload::kConsensusBuggy:
      // The revoke-vs-chain delivery race at the shared replica: the two
      // deliveries sit ~0.5 µs apart, so a 2 µs window can swap them.
      return sim::Micros(2);
    default:
      return sim::Nanos(1000);
  }
}

int DefaultRuns(Workload kind) {
  switch (kind) {
    case Workload::kSyncSpin:
    case Workload::kSyncOpt:
    case Workload::kSyncLease:
    case Workload::kSyncPrism:
    case Workload::kSyncBuggy:
      // Each run's perturbation burst probes one position in the schedule
      // (see ExploreSeed); critical-section handoffs are narrow, so give
      // the burst more positions per seed.
      return 32;
    case Workload::kConsensusBuggy:
      // The split-brain window is one delivery swap near the end of the
      // scripted schedule — a narrower target than the sync races (tuned
      // with tools/explore_main: 128 sliding-burst runs find it on every
      // seed in [1, 100]; 32 miss ~3 in 10).
      return 128;
    default:
      return 8;
  }
}

const char* WorkloadName(Workload kind) {
  return kWorkloadNames[static_cast<int>(kind)];
}

bool WorkloadFromName(std::string_view name, Workload* out) {
  for (int i = 0; i < kWorkloadCount; ++i) {
    if (name == kWorkloadNames[i]) {
      *out = static_cast<Workload>(i);
      return true;
    }
  }
  return false;
}

RunOutcome RunWorkload(const WorkloadOptions& opts) {
  switch (opts.kind) {
    case Workload::kToy:
      return RunToy(opts);
    case Workload::kRs:
      return RunChaos<RsStack>(opts);
    case Workload::kKv:
      return RunChaos<KvStack>(opts);
    case Workload::kTx:
      return RunChaos<TxStack>(opts);
    case Workload::kSyncSpin:
    case Workload::kSyncOpt:
    case Workload::kSyncLease:
    case Workload::kSyncPrism:
    case Workload::kSyncBuggy:
      return RunSync(opts);
    case Workload::kConsensus:
      return RunChaos<ConsensusStack>(opts);
    case Workload::kConsensusBuggy:
      return RunConsensusBuggy(opts);
  }
  return RunOutcome{};
}

Bytes UniqueValue(size_t size, uint64_t seed, int client, int op) {
  Bytes v(size, 0);
  for (int i = 0; i < 8; ++i) v[i] = static_cast<uint8_t>(seed >> (8 * i));
  v[8] = static_cast<uint8_t>(client);
  v[9] = static_cast<uint8_t>(op);
  v[10] = static_cast<uint8_t>(op >> 8);
  return v;
}

bool CommittedPrefixesAgree(const consensus::ConsensusCluster& cluster,
                            std::string* error) {
  for (int a = 0; a < cluster.n(); ++a) {
    for (int b = a + 1; b < cluster.n(); ++b) {
      const uint64_t upto = std::min(cluster.replica(a).commit_seq(),
                                     cluster.replica(b).commit_seq());
      for (uint64_t s = 1; s <= upto; ++s) {
        consensus::LogEntryWire ea, eb;
        if (!cluster.replica(a).EntryAt(s, &ea) ||
            !cluster.replica(b).EntryAt(s, &eb)) {
          continue;
        }
        if (ea.key != eb.key || ea.v_lo != eb.v_lo || ea.v_hi != eb.v_hi) {
          *error = "replicas " + std::to_string(a) + " and " +
                   std::to_string(b) + " diverge at committed seq " +
                   std::to_string(s);
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace prism::explore
