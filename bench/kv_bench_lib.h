// Shared rig for the Figure 3 / Figure 4 key-value benchmarks.
#ifndef PRISM_BENCH_KV_BENCH_LIB_H_
#define PRISM_BENCH_KV_BENCH_LIB_H_

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/kv/pilaf.h"
#include "src/kv/prism_kv.h"

namespace prism::bench {

// Scaled-down store (DESIGN.md §1): the paper uses 8 M × 512 B objects; the
// protocol path is size-invariant in simulation, so we use 64 K keys
// (8 K in fast mode) with identical value size and access distribution.
inline uint64_t BenchKeyCount() { return FastMode() ? 8192 : 65536; }
constexpr uint64_t kBenchValueSize = 512;

struct KvWorkloadResult {
  workload::LoadPoint point;
};

// Runs a YCSB-style closed-loop sweep against PRISM-KV. `pobs`, when given,
// attaches this point's tracer / collects its metrics snapshot.
inline workload::LoadPoint RunPrismKvPoint(int n_clients, double read_frac,
                                           const BenchWindows& windows,
                                           uint64_t seed,
                                           obs::PointObs* pobs = nullptr) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  if (pobs != nullptr) fabric.obs().SetTracer(pobs->tracer);
  net::HostId server_host = fabric.AddHost("kv-server");
  kv::PrismKvOptions opts;
  const uint64_t keys = BenchKeyCount();
  opts.n_buckets = keys;
  opts.n_buffers = keys + 4096;
  opts.dense_key_hash = true;
  kv::PrismKvServer server(&fabric, server_host, opts);
  for (uint64_t k = 0; k < keys; ++k) {
    PRISM_CHECK(server
                    .LoadKey(BytesOfString(KeyOf(k)),
                             Bytes(kBenchValueSize, 0x11))
                    .ok());
  }
  auto client_hosts = AddClientHosts(fabric);
  std::vector<std::unique_ptr<kv::PrismKvClient>> clients;
  for (int c = 0; c < n_clients; ++c) {
    clients.push_back(std::make_unique<kv::PrismKvClient>(
        &fabric, client_hosts[static_cast<size_t>(c) % client_hosts.size()],
        &server));
  }
  Rng master(seed);
  std::vector<Rng> rngs;
  for (int c = 0; c < n_clients; ++c) rngs.push_back(master.Fork());
  auto loop = [&](int c, workload::Recorder* recorder) -> sim::Task<void> {
    kv::PrismKvClient* client = clients[static_cast<size_t>(c)].get();
    const net::HostId host =
        client_hosts[static_cast<size_t>(c) % client_hosts.size()];
    Rng* rng = &rngs[static_cast<size_t>(c)];
    while (sim.Now() < recorder->measure_end()) {
      const uint64_t key = rng->NextBelow(keys);
      const bool is_get = rng->NextDouble() < read_frac;
      const sim::TimePoint op_start = sim.Now();
      const obs::TransportTally before = client->TransportTally();
      const obs::SpanId span = fabric.obs().StartSpan(
          is_get ? "kv.get" : "kv.put", "app", host, sim.Now());
      if (is_get) {
        auto r = co_await client->Get(KeyOf(key));
        PRISM_CHECK(r.ok()) << r.status();
      } else {
        Status s = co_await client->Put(KeyOf(key),
                                        Bytes(kBenchValueSize, 0x22));
        PRISM_CHECK(s.ok()) << s;
      }
      fabric.obs().FinishSpan(span, sim.Now());
      fabric.obs().ops().Record(is_get ? "kv.get" : "kv.put",
                                client->TransportTally() - before);
      recorder->Record(op_start);
    }
    client->FlushReclaim();
  };
  workload::LoadPoint p = RunClosedLoop(sim, n_clients, windows, loop);
  p.ops = fabric.obs().ops().Collect();
  if (pobs != nullptr) {
    if (pobs->tracer != nullptr) pobs->host_names = fabric.HostNames();
    if (pobs->want_metrics) pobs->snapshot = fabric.obs().metrics().Snapshot();
  }
  return p;
}

// Runs the same sweep against Pilaf with the given RDMA backend.
inline workload::LoadPoint RunPilafPoint(int n_clients, double read_frac,
                                         rdma::Backend backend,
                                         const BenchWindows& windows,
                                         uint64_t seed,
                                         obs::PointObs* pobs = nullptr) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  if (pobs != nullptr) fabric.obs().SetTracer(pobs->tracer);
  net::HostId server_host = fabric.AddHost("pilaf-server");
  kv::PilafOptions opts;
  const uint64_t keys = BenchKeyCount();
  opts.n_buckets = keys;
  opts.n_extents = keys + 4096;
  opts.backend = backend;
  opts.dense_key_hash = true;
  kv::PilafServer server(&fabric, server_host, opts);
  for (uint64_t k = 0; k < keys; ++k) {
    PRISM_CHECK(server
                    .LoadKey(BytesOfString(KeyOf(k)),
                             Bytes(kBenchValueSize, 0x11))
                    .ok());
  }
  auto client_hosts = AddClientHosts(fabric);
  std::vector<std::unique_ptr<kv::PilafClient>> clients;
  for (int c = 0; c < n_clients; ++c) {
    clients.push_back(std::make_unique<kv::PilafClient>(
        &fabric, client_hosts[static_cast<size_t>(c) % client_hosts.size()],
        &server));
  }
  Rng master(seed);
  std::vector<Rng> rngs;
  for (int c = 0; c < n_clients; ++c) rngs.push_back(master.Fork());
  auto loop = [&](int c, workload::Recorder* recorder) -> sim::Task<void> {
    kv::PilafClient* client = clients[static_cast<size_t>(c)].get();
    const net::HostId host =
        client_hosts[static_cast<size_t>(c) % client_hosts.size()];
    Rng* rng = &rngs[static_cast<size_t>(c)];
    while (sim.Now() < recorder->measure_end()) {
      const uint64_t key = rng->NextBelow(keys);
      const bool is_get = rng->NextDouble() < read_frac;
      const sim::TimePoint op_start = sim.Now();
      const obs::TransportTally before = client->TransportTally();
      const obs::SpanId span = fabric.obs().StartSpan(
          is_get ? "kv.get" : "kv.put", "app", host, sim.Now());
      if (is_get) {
        auto r = co_await client->Get(KeyOf(key));
        PRISM_CHECK(r.ok()) << r.status();
      } else {
        Status s = co_await client->Put(KeyOf(key),
                                        Bytes(kBenchValueSize, 0x22));
        PRISM_CHECK(s.ok()) << s;
      }
      fabric.obs().FinishSpan(span, sim.Now());
      fabric.obs().ops().Record(is_get ? "kv.get" : "kv.put",
                                client->TransportTally() - before);
      recorder->Record(op_start);
    }
  };
  workload::LoadPoint p = RunClosedLoop(sim, n_clients, windows, loop);
  p.ops = fabric.obs().ops().Collect();
  if (pobs != nullptr) {
    if (pobs->tracer != nullptr) pobs->host_names = fabric.HostNames();
    if (pobs->want_metrics) pobs->snapshot = fabric.obs().metrics().Snapshot();
  }
  return p;
}

// Fans the full three-series client sweep through the parallel sweep
// runner; each cell is a self-contained simulation (own Simulator, Fabric,
// RNGs), so any --jobs count yields bit-identical rows and stdout.
inline void RunKvFigure(const char* bench_name, const char* title,
                        double read_frac, int jobs,
                        const ObsOptions& obs_opts = {}) {
  using workload::PrintHeader;
  using workload::PrintRow;
  BenchWindows windows = BenchWindows::Default();
  const std::vector<int> sweep = DefaultClientSweep();
  ObsRig rig(obs_opts, 3 * sweep.size());
  std::vector<SweepCell> cells;
  size_t slot = 0;
  for (int n : sweep) {
    obs::PointObs* po = rig.at(slot++);
    cells.push_back({"Pilaf", [=] {
                       return RunPilafPoint(n, read_frac,
                                            rdma::Backend::kHardwareNic,
                                            windows,
                                            1000 + static_cast<uint64_t>(n),
                                            po);
                     }});
  }
  for (int n : sweep) {
    obs::PointObs* po = rig.at(slot++);
    cells.push_back({"Pilaf (software RDMA)", [=] {
                       return RunPilafPoint(n, read_frac,
                                            rdma::Backend::kSoftwareStack,
                                            windows,
                                            2000 + static_cast<uint64_t>(n),
                                            po);
                     }});
  }
  for (int n : sweep) {
    obs::PointObs* po = rig.at(slot++);
    cells.push_back({"PRISM-KV", [=] {
                       return RunPrismKvPoint(
                           n, read_frac, windows,
                           3000 + static_cast<uint64_t>(n), po);
                     }});
  }
  FigureReporter reporter(bench_name, title);
  std::vector<workload::LoadPoint> rows =
      RunFigureSweep(reporter, cells, jobs);
  PrintHeader(title);
  for (size_t i = 0; i < cells.size(); ++i) {
    PrintRow(cells[i].series, rows[i]);
  }
  reporter.WriteUnified();
  rig.Finish(bench_name, cells);
}

}  // namespace prism::bench

#endif  // PRISM_BENCH_KV_BENCH_LIB_H_
