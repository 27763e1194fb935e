// The figure rig: how every figure point assembles and loads a system.
//
//  * PointRig owns one point's simulation: the Simulator, the Fabric on the
//    point's cost model (the evaluation cluster unless the figure sweeps
//    the network), the tracer attach, and the harvest of op-complexity
//    rows, host names and the metrics snapshot.
//  * One adapter per paper stack (PRISM-KV, Pilaf, PRISM-RS, ABD-LOCK,
//    PRISM-TX, FaRM) builds the stack's servers on a fabric, loads its
//    keys, makes client `c` on a host, names its op classes and issues one
//    op: Issue() returns true when the op committed, false when it aborted.
//  * RunClosedPoint drives an adapter with §5's closed loop: clients
//    round-robined over the 11 client hosts, a warmup window, then a
//    measured window. RunClientSweepFigure and ZipfCells lay a figure's
//    series of such points over its client or Zipf sweep.
//  * RunOpenLoopPoint drives any client pair per host through one
//    OpenLoopPool per host and merges the per-class results.
//
// Each adapter fixes its stack's order of set-up and RNG draws (servers
// before client hosts, per-client Rng forks in client order), so figure
// output is a pure function of the point's seed.
#ifndef PRISM_BENCH_STACKS_H_
#define PRISM_BENCH_STACKS_H_

#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/common/histogram.h"
#include "src/kv/pilaf.h"
#include "src/kv/prism_kv.h"
#include "src/obs/obs.h"
#include "src/rdma/batch.h"
#include "src/rs/abd_lock.h"
#include "src/rs/prism_rs.h"
#include "src/tx/farm.h"
#include "src/tx/prism_tx.h"
#include "src/workload/arrival.h"
#include "src/workload/open_loop.h"

namespace prism::bench {

// Scaled-down stores (DESIGN.md §1): the paper uses 8 M objects; the
// protocol path is size-invariant in simulation, so the key counts shrink
// (further in fast mode) while value sizes and access distributions stay
// the paper's.
inline uint64_t BenchKeyCount() { return FastMode() ? 8192 : 65536; }
constexpr uint64_t kBenchValueSize = 512;
inline uint64_t RsBlockCount() { return FastMode() ? 2048 : 16384; }
constexpr uint64_t kRsBlockSize = 512;
constexpr int kRsReplicas = 3;
inline uint64_t TxKeyCount() { return FastMode() ? 4096 : 32768; }
constexpr uint64_t kTxValueSize = 512;

class PointRig {
 public:
  explicit PointRig(obs::PointObs* pobs,
                    const net::CostModel& model =
                        net::CostModel::EvalCluster40G())
      : fabric(&sim, model), pobs_(pobs) {
    if (pobs != nullptr) fabric.obs().SetTracer(pobs->tracer);
  }
  PointRig(const PointRig&) = delete;
  PointRig& operator=(const PointRig&) = delete;

  // Wires a pool's per-op phase timelines when the point is traced.
  void AttachTimelines(workload::OpenLoopPool& pool, net::HostId host) {
    if (pobs_ != nullptr && pobs_->timelines != nullptr) {
      pool.set_timelines(pobs_->timelines, &fabric.obs(), host);
    }
  }

  // Completes the point's row with the op-complexity aggregates and fills
  // the observability slot.
  workload::LoadPoint Finish(workload::LoadPoint p) {
    p.ops = fabric.obs().ops().Collect();
    if (pobs_ != nullptr) {
      if (pobs_->tracer != nullptr) pobs_->host_names = fabric.HostNames();
      if (pobs_->want_metrics) {
        pobs_->snapshot = fabric.obs().metrics().Snapshot();
      }
    }
    return p;
  }

  sim::Simulator sim;
  net::Fabric fabric;

 private:
  obs::PointObs* pobs_;
};

// ---- stack adapters ----

// The KV stacks (Figs. 3/4): one server host with every key loaded. Class
// 0 is GET, drawn with probability ClosedLoad::mix (the read fraction).
template <typename Server, typename ClientT>
class KvStack {
 public:
  using Client = ClientT;
  static constexpr std::array<const char*, 2> kOps = {"kv.get", "kv.put"};
  static uint64_t keys() { return BenchKeyCount(); }

  template <typename Options>
  KvStack(net::Fabric* fabric, const char* host_name, const Options& opts)
      : fabric_(fabric), server_(fabric, fabric->AddHost(host_name), opts) {
    for (uint64_t k = 0; k < keys(); ++k) {
      PRISM_CHECK(server_
                      .LoadKey(BytesOfString(KeyOf(k)),
                               Bytes(kBenchValueSize, 0x11))
                      .ok());
    }
  }

  std::unique_ptr<Client> MakeClient(net::HostId host, int, uint64_t) {
    return std::make_unique<Client>(fabric_, host, &server_);
  }
  // Neither a GET nor a PUT may fail.
  sim::Task<bool> Issue(Client* client, int, size_t cls, uint64_t key) {
    if (cls == 0) {
      auto r = co_await client->Get(KeyOf(key));
      PRISM_CHECK(r.ok()) << r.status();
    } else {
      Status s =
          co_await client->Put(KeyOf(key), Bytes(kBenchValueSize, 0x22));
      PRISM_CHECK(s.ok()) << s;
    }
    co_return true;
  }

 private:
  net::Fabric* fabric_;
  Server server_;
};

class PrismKvStack : public KvStack<kv::PrismKvServer, kv::PrismKvClient> {
 public:
  explicit PrismKvStack(net::Fabric* fabric)
      : KvStack(fabric, "kv-server", Options()) {}

 private:
  static kv::PrismKvOptions Options() {
    kv::PrismKvOptions opts;
    opts.n_buckets = BenchKeyCount();
    opts.n_buffers = BenchKeyCount() + 4096;
    opts.dense_key_hash = true;
    return opts;
  }
};

class PilafStack : public KvStack<kv::PilafServer, kv::PilafClient> {
 public:
  PilafStack(net::Fabric* fabric, rdma::Backend backend)
      : KvStack(fabric, "pilaf-server", Options(backend)) {}

 private:
  static kv::PilafOptions Options(rdma::Backend backend) {
    kv::PilafOptions opts;
    opts.n_buckets = BenchKeyCount();
    opts.n_extents = BenchKeyCount() + 4096;
    opts.backend = backend;
    opts.dense_key_hash = true;
    return opts;
  }
};

// The replicated block stores (Figs. 6/7): 3 replicas. Class 0 is PUT,
// drawn with probability ClosedLoad::mix (the write fraction).
class PrismRsStack {
 public:
  using Client = rs::PrismRsClient;
  static constexpr std::array<const char*, 2> kOps = {"rs.put", "rs.get"};

  explicit PrismRsStack(net::Fabric* fabric)
      : fabric_(fabric), cluster_(fabric, kRsReplicas, Options()) {}

  static uint64_t keys() { return RsBlockCount(); }
  std::unique_ptr<Client> MakeClient(net::HostId host, int c, uint64_t) {
    return std::make_unique<Client>(fabric_, host, &cluster_,
                                    static_cast<uint16_t>(c + 1));
  }
  // Neither a PUT nor a GET may fail.
  sim::Task<bool> Issue(Client* client, int c, size_t cls, uint64_t block) {
    if (cls == 0) {
      Status s = co_await client->Put(
          block, Bytes(kRsBlockSize, static_cast<uint8_t>(c)));
      PRISM_CHECK(s.ok()) << s;
    } else {
      auto r = co_await client->Get(block);
      PRISM_CHECK(r.ok()) << r.status();
    }
    co_return true;
  }

 private:
  static rs::PrismRsOptions Options() {
    rs::PrismRsOptions opts;
    opts.n_blocks = RsBlockCount();
    opts.block_size = kRsBlockSize;
    opts.buffers_per_replica = RsBlockCount() + 8192;
    return opts;
  }

  net::Fabric* fabric_;
  rs::PrismRsCluster cluster_;
};

class AbdLockStack {
 public:
  using Client = rs::AbdLockClient;
  static constexpr std::array<const char*, 2> kOps = {"abd.put", "abd.get"};

  AbdLockStack(net::Fabric* fabric, rdma::Backend backend)
      : fabric_(fabric), cluster_(fabric, kRsReplicas, Options(backend)) {}

  static uint64_t keys() { return RsBlockCount(); }
  std::unique_ptr<Client> MakeClient(net::HostId host, int c,
                                     uint64_t seed) {
    return std::make_unique<Client>(fabric_, host, &cluster_,
                                    static_cast<uint16_t>(c + 1),
                                    seed * 31 + 7);
  }
  // Fails (an abort) when lock acquisition runs out of attempts.
  sim::Task<bool> Issue(Client* client, int c, size_t cls, uint64_t block) {
    bool ok = true;
    if (cls == 0) {
      Status s = co_await client->Put(
          block, Bytes(kRsBlockSize, static_cast<uint8_t>(c)));
      ok = s.ok();
    } else {
      auto r = co_await client->Get(block);
      ok = r.ok();
    }
    co_return ok;
  }

 private:
  static rs::AbdLockOptions Options(rdma::Backend backend) {
    rs::AbdLockOptions opts;
    opts.n_blocks = RsBlockCount();
    opts.block_size = kRsBlockSize;
    opts.backend = backend;
    return opts;
  }

  net::Fabric* fabric_;
  rs::AbdLockCluster cluster_;
};

// The transaction stacks (Figs. 9/10): one shard with every key loaded and
// one op class, the YCSB-T read-modify-write (read one record, write it
// back modified), which aborts on an OCC conflict; YCSB-T retries it as a
// new transaction.
template <typename Cluster, typename ClientT>
class TxStack {
 public:
  using Client = ClientT;
  static constexpr std::array<const char*, 1> kOps = {"tx.rmw"};
  static uint64_t keys() { return TxKeyCount(); }

  template <typename Options>
  TxStack(net::Fabric* fabric, const Options& opts)
      : fabric_(fabric), cluster_(fabric, /*n_shards=*/1, opts) {
    for (uint64_t k = 0; k < keys(); ++k) {
      PRISM_CHECK(cluster_.LoadKey(k, Bytes(kTxValueSize, 0x11)).ok());
    }
  }

  std::unique_ptr<Client> MakeClient(net::HostId host, int c, uint64_t) {
    return std::make_unique<Client>(fabric_, host, &cluster_,
                                    static_cast<uint16_t>(c + 1));
  }
  sim::Task<bool> Issue(Client* client, int, size_t, uint64_t key) {
    auto txn = client->Begin();
    auto v = co_await client->Read(txn, key);
    if (!v.ok()) co_return false;
    Bytes updated = std::move(*v);
    updated[0] = static_cast<uint8_t>(updated[0] + 1);
    client->Write(txn, key, std::move(updated));
    Status s = co_await client->Commit(txn);
    co_return s.ok();
  }

 private:
  net::Fabric* fabric_;
  Cluster cluster_;
};

class PrismTxStack : public TxStack<tx::PrismTxCluster, tx::PrismTxClient> {
 public:
  explicit PrismTxStack(net::Fabric* fabric) : TxStack(fabric, Options()) {}

 private:
  static tx::PrismTxOptions Options() {
    tx::PrismTxOptions opts;
    opts.keys_per_shard = TxKeyCount();
    opts.value_size = kTxValueSize;
    opts.buffers_per_shard = TxKeyCount() + 8192;
    return opts;
  }
};

class FarmStack : public TxStack<tx::FarmCluster, tx::FarmClient> {
 public:
  FarmStack(net::Fabric* fabric, rdma::Backend backend)
      : TxStack(fabric, Options(backend)) {}

 private:
  static tx::FarmOptions Options(rdma::Backend backend) {
    tx::FarmOptions opts;
    opts.keys_per_shard = TxKeyCount();
    opts.value_size = kTxValueSize;
    opts.backend = backend;
    return opts;
  }
};

// ---- closed loop (§5) ----

// One closed-loop point: `clients` clients, each drawing keys (Zipf
// `theta`; uniform at 0) and, on two-class stacks, class 0 with probability
// `mix`.
struct ClosedLoad {
  int clients = 1;
  double mix = 0;
  double theta = 0;
  BenchWindows windows;
  uint64_t seed = 1;
};

// One client: issues ops back to back until the measured window closes,
// each under an app span and with its transport delta filed per op class.
template <typename Stack>
sim::Task<void> ClosedLoopClient(PointRig* rig, Stack* stack,
                                 typename Stack::Client* client,
                                 net::HostId host, int c, Rng* rng,
                                 const workload::KeyChooser* chooser,
                                 double mix, workload::Recorder* recorder) {
  sim::Simulator& sim = rig->sim;
  obs::Hub& hub = rig->fabric.obs();
  while (sim.Now() < recorder->measure_end()) {
    const uint64_t key = chooser->Next(*rng);
    const size_t cls =
        (Stack::kOps.size() == 1 || rng->NextDouble() < mix) ? 0 : 1;
    const char* op = Stack::kOps[cls];
    const sim::TimePoint op_start = sim.Now();
    const obs::TransportTally before = client->TransportTally();
    const obs::SpanId span = hub.StartSpan(op, "app", host, sim.Now());
    const bool ok = co_await stack->Issue(client, c, cls, key);
    hub.FinishSpan(span, sim.Now());
    hub.ops().Record(op, client->TransportTally() - before);
    if (ok) {
      recorder->Record(op_start);
    } else {
      recorder->RecordAbort();
    }
  }
  if constexpr (requires(typename Stack::Client* cl) { cl->FlushReclaim(); }) {
    client->FlushReclaim();
  }
}

// Runs one closed-loop point against `Stack`, built on the point's fabric
// from `stack_args`. `pobs`, when given, attaches the point's tracer and
// collects its metrics snapshot.
template <typename Stack, typename... StackArgs>
workload::LoadPoint RunClosedPoint(const ClosedLoad& load,
                                   obs::PointObs* pobs,
                                   StackArgs... stack_args) {
  PointRig rig(pobs);
  Stack stack(&rig.fabric, stack_args...);
  const std::vector<net::HostId> hosts = AddClientHosts(rig.fabric);
  std::vector<std::unique_ptr<typename Stack::Client>> clients;
  for (int c = 0; c < load.clients; ++c) {
    clients.push_back(stack.MakeClient(
        hosts[static_cast<size_t>(c) % hosts.size()], c, load.seed));
  }
  Rng master(load.seed);
  std::vector<Rng> rngs;
  for (int c = 0; c < load.clients; ++c) rngs.push_back(master.Fork());
  const workload::KeyChooser chooser(Stack::keys(), load.theta);
  const sim::TimePoint start = rig.sim.Now() + load.windows.warmup;
  const sim::TimePoint end = start + load.windows.measure;
  workload::Recorder recorder(&rig.sim, start, end);
  sim::TaskTracker tracker;
  for (int c = 0; c < load.clients; ++c) {
    const size_t i = static_cast<size_t>(c);
    sim::Spawn(ClosedLoopClient(&rig, &stack, clients[i].get(),
                                hosts[i % hosts.size()], c, &rngs[i],
                                &chooser, load.mix, &recorder),
               &tracker);
  }
  rig.sim.RunUntil(end + sim::Millis(20));  // drain tail + reclamation
  rig.sim.Run();
  PRISM_CHECK_EQ(tracker.live(), 0);
  return rig.Finish(workload::MakeLoadPoint(load.clients, recorder));
}

// One closed-loop point of a figure series.
using PointRunner =
    std::function<workload::LoadPoint(const ClosedLoad&, obs::PointObs*)>;

// RunClosedPoint<Stack> as a figure-series runner, the stack built from
// `stack_args`.
template <typename Stack, typename... StackArgs>
PointRunner ClosedRunner(StackArgs... stack_args) {
  return [=](const ClosedLoad& load, obs::PointObs* pobs) {
    return RunClosedPoint<Stack>(load, pobs, stack_args...);
  };
}

// One series of a closed-loop figure: its point at a swept coordinate runs
// `run` at seed `seed_base` plus that coordinate.
struct ClientSeries {
  const char* name;
  uint64_t seed_base;
  PointRunner run;
};

// A throughput-latency figure (Figs. 3, 4, 6, 9): every series over the
// client sweep, one cell per point fanned through the parallel sweep
// runner, printed as one table; `abort_column` adds each row's abort%.
inline void RunClientSweepFigure(const char* bench_name, const char* title,
                                 double mix,
                                 const std::vector<ClientSeries>& series,
                                 int jobs, const ObsOptions& obs_opts,
                                 bool abort_column = false) {
  const BenchWindows windows = BenchWindows::Default();
  const std::vector<int> sweep = DefaultClientSweep();
  ObsRig rig(obs_opts, series.size() * sweep.size());
  std::vector<SweepCell> cells;
  size_t slot = 0;
  for (const ClientSeries& s : series) {
    for (int n : sweep) {
      const ClosedLoad load{.clients = n,
                            .mix = mix,
                            .windows = windows,
                            .seed = s.seed_base + static_cast<uint64_t>(n)};
      obs::PointObs* po = rig.at(slot++);
      cells.push_back({s.name, [run = s.run, load, po] {
                         return run(load, po);
                       }});
    }
  }
  FigureReporter reporter(bench_name, title);
  std::vector<workload::LoadPoint> rows =
      RunFigureSweep(reporter, cells, jobs);
  PrintHeader(title, abort_column ? "abort%" : "");
  for (size_t i = 0; i < cells.size(); ++i) {
    char abort_pct[32] = "";
    if (abort_column) {
      std::snprintf(abort_pct, sizeof(abort_pct), "%5.2f%%",
                    rows[i].abort_rate * 100);
    }
    PrintRow(cells[i].series, rows[i], abort_pct);
  }
  reporter.WriteUnified();
  rig.Finish(bench_name, cells);
}

// The cells of a Zipf figure (Figs. 7, 10): for each theta, one cell per
// series at `clients` clients and seed `seed_base + theta * seed_scale`.
inline std::vector<SweepCell> ZipfCells(
    ObsRig& rig, int clients, double mix, const std::vector<double>& thetas,
    double seed_scale, const std::vector<ClientSeries>& series) {
  const BenchWindows windows = BenchWindows::Default();
  std::vector<SweepCell> cells;
  size_t slot = 0;
  for (double theta : thetas) {
    for (const ClientSeries& s : series) {
      const ClosedLoad load{
          .clients = clients,
          .mix = mix,
          .theta = theta,
          .windows = windows,
          .seed = s.seed_base + static_cast<uint64_t>(theta * seed_scale)};
      obs::PointObs* po = rig.at(slot++);
      cells.push_back({s.name,
                       [run = s.run, load, po] { return run(load, po); },
                       theta});
    }
  }
  return cells;
}

// ---- open loop ----

// Resident set size from /proc; 0 where unsupported.
inline size_t VmRssBytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
#else
  return 0;
#endif
}

// An open-loop point's row from its merged latency histogram: latency is
// measured from arrival, `measured_arrivals` is the offered load.
inline workload::LoadPoint MakeOpenLoopPoint(const LatencyHistogram& hist,
                                             uint64_t clients,
                                             uint64_t measured_arrivals,
                                             sim::Duration window,
                                             const sim::Simulator& sim) {
  const double seconds = sim::ToSeconds(window);
  workload::LoadPoint p;
  p.clients = static_cast<int>(clients);
  const auto s = hist.Summarize();
  p.tput_mops = static_cast<double>(s.count) / seconds / 1e6;
  p.offered_mops = static_cast<double>(measured_arrivals) / seconds / 1e6;
  p.mean_us = s.mean_us;
  p.p50_us = s.p50_us;
  p.p99_us = s.p99_us;
  p.p999_us = s.p999_us;
  p.sim_events = sim.executed_events();
  return p;
}

// One open-loop point's load: `n_clients` logical clients split evenly
// over the 11 client hosts, each host's share arriving at
// offered_mops / 11 and served by `workers_per_host` pool workers (the
// client library's in-flight window).
struct OpenLoad {
  double offered_mops = 1.0;
  uint64_t n_clients = 0;
  workload::ArrivalKind arrival = workload::ArrivalKind::kPoisson;
  BenchWindows windows;
  uint64_t seed = 1;
  int workers_per_host = 32;
  // One doorbell-batching VerbBatcher per host, shared by its clients.
  bool batched = false;
  // When set, VmRSS is sampled at the end of the run while every pool and
  // client is still live.
  size_t* live_rss_out = nullptr;
};

// One of the two op classes of an open-loop point: its pool name and
// weight, how to make host h's client for it (one client per class and
// host, so per-class tallies stay separable), and the op body.
template <typename ClientT>
struct OpenClass {
  const char* name;
  double weight;
  std::function<std::unique_ptr<ClientT>(size_t h, net::HostId host)>
      make_client;
  std::function<sim::Task<void>(ClientT* client, uint64_t draw,
                                obs::OpTimeline* op)>
      body;
};

template <typename ClientT>
obs::TransportTally TallyOf(const ClientT& client) {
  if constexpr (requires(const ClientT& cl) { cl.TransportTally(); }) {
    return client.TransportTally();
  } else {
    return client.tally();
  }
}

// Builds one pool per client host over the classes' clients, runs the
// simulation, merges the per-host histograms losslessly, and files each
// class's whole-run complexity aggregate with the fabric's accountant.
template <typename ClientT>
workload::LoadPoint RunOpenLoopPoint(
    PointRig& rig, const OpenLoad& load,
    const std::array<OpenClass<ClientT>, 2>& classes) {
  sim::Simulator& sim = rig.sim;
  const std::vector<net::HostId> hosts = AddClientHosts(rig.fabric);
  const size_t n_hosts = hosts.size();
  struct HostRig {
    std::unique_ptr<rdma::VerbBatcher> batcher;
    std::array<std::unique_ptr<ClientT>, 2> clients;
    std::unique_ptr<workload::OpenLoopPool> pool;
  };
  std::vector<HostRig> rigs(n_hosts);
  const sim::TimePoint measure_start = sim.Now() + load.windows.warmup;
  const sim::TimePoint end = measure_start + load.windows.measure;
  Rng master(load.seed);
  const double rate_per_host =
      load.offered_mops * 1e6 / static_cast<double>(n_hosts);
  uint64_t remaining = load.n_clients;
  for (size_t h = 0; h < n_hosts; ++h) {
    HostRig& hr = rigs[h];
    if (load.batched) {
      hr.batcher = std::make_unique<rdma::VerbBatcher>(
          &sim, &rig.fabric.cost(), rdma::BatchOptions::Batched());
    }
    for (size_t c = 0; c < 2; ++c) {
      hr.clients[c] = classes[c].make_client(h, hosts[h]);
    }
    if (hr.batcher != nullptr) {
      for (auto& client : hr.clients) client->set_batcher(hr.batcher.get());
    }
    const uint64_t n_here = remaining / (n_hosts - h);
    remaining -= n_here;
    workload::PoolOptions popts;
    popts.workers = load.workers_per_host;
    hr.pool = std::make_unique<workload::OpenLoopPool>(
        &sim, workload::ArrivalSpec{load.arrival, rate_per_host}, n_here,
        master.Fork(), popts);
    rig.AttachTimelines(*hr.pool, hosts[h]);
    for (size_t c = 0; c < 2; ++c) {
      ClientT* client = hr.clients[c].get();
      const auto* body = &classes[c].body;
      hr.pool->AddClass(classes[c].name, classes[c].weight,
                        [body, client](uint64_t draw, obs::OpTimeline* op) {
                          return (*body)(client, draw, op);
                        });
    }
    hr.pool->Start(measure_start, end);
  }
  sim.RunUntil(end + sim::Millis(20));  // drain backlog tail + reclamation
  sim.Run();

  LatencyHistogram all;
  for (size_t c = 0; c < 2; ++c) {
    LatencyHistogram cls_hist;
    obs::TransportTally tally;
    uint64_t n_ops = 0;
    for (HostRig& hr : rigs) {
      cls_hist.Merge(hr.pool->recorder(c).hist());
      n_ops += hr.pool->class_completions(c);
      tally += TallyOf(*hr.clients[c]);
    }
    rig.fabric.obs().ops().RecordN(classes[c].name, n_ops, tally);
    all.Merge(cls_hist);
  }
  uint64_t measured_arrivals = 0;
  uint64_t total_clients = 0;
  for (HostRig& hr : rigs) {
    hr.pool->CheckDrained();
    measured_arrivals += hr.pool->measured_arrivals();
    total_clients += hr.pool->n_clients();
    PRISM_CHECK_LE(hr.pool->state_bytes() / hr.pool->n_clients(), 64u);
    if constexpr (requires(ClientT* cl) { cl->FlushReclaim(); }) {
      for (auto& client : hr.clients) client->FlushReclaim();
    }
  }
  sim.Run();  // flushed reclamation notifications

  const workload::LoadPoint p = rig.Finish(MakeOpenLoopPoint(
      all, total_clients, measured_arrivals, end - measure_start, sim));
  // Sampled with every pool, client, and histogram still resident so the
  // guard's two samples share their fixed footprint.
  if (load.live_rss_out != nullptr) *load.live_rss_out = VmRssBytes();
  return p;
}

}  // namespace prism::bench

#endif  // PRISM_BENCH_STACKS_H_
