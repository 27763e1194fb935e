// One timed simulation of one system under one workload.
//
// Load is open loop: one workload::OpenLoopPool per client host of
// CostModel::EvalCluster40G()'s 11-host cluster, Poisson arrivals at the
// workload's offered rate, latency counted from arrival. Both systems of a
// workload see the same arrivals and key draws (same seed).
#ifndef PERFBENCH_SRC_RUNNER_H_
#define PERFBENCH_SRC_RUNNER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "perfbench/src/spans.h"
#include "perfbench/src/targets.h"
#include "src/obs/complexity.h"
#include "src/sim/time.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  App app;
  double offered_mops;  // summed over the client hosts
  prism::sim::Duration warmup;
  prism::sim::Duration measure;
};

// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(std::string_view name);

// Everything a fixed seed must reproduce exactly.
struct Counts {
  // Completions inside the measurement window, by outcome.
  uint64_t window_done = 0;
  uint64_t window_ok = 0;
  uint64_t window_aborted = 0;
  uint64_t window_error = 0;
  // Latency from arrival (workload::Recorder's window).
  uint64_t samples = 0;
  int64_t p50_ns = 0;
  int64_t p999_ns = 0;
  // Whole-run totals, for per-op ratios.
  uint64_t completions = 0;
  prism::obs::TransportTally tally;
  uint64_t events = 0;
  uint64_t timer_events = 0;
  uint64_t heap_callables = 0;
  uint64_t messages = 0;
  uint64_t wire_bytes = 0;
  uint64_t peak_backlog = 0;
  uint64_t allocs = 0;  // heap allocations during the timed run
  uint64_t alloc_bytes = 0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

// Per-op distributions gathered only by the traced run.
struct TracedStats {
  int64_t wait_p99_ns = 0;     // arrival to worker pickup
  int64_t service_p99_ns = 0;  // op function start to end
  friend bool operator==(const TracedStats&, const TracedStats&) = default;
};

struct SystemResult {
  int64_t setup_ns = 0;
  int64_t run_ns = 0;
  int64_t check_ns = 0;
  bool check_ok = false;
  std::string check_error;
  uint64_t history_ops = 0;
  Counts counts;
  TracedStats traced;
};

// Builds the rig, runs the simulation to drain, and checks the history.
// With `spans` set, the run is traced: host spans for set-up, run and
// check, and two simulated-time spans per op.
SystemResult RunSystem(const WorkloadSpec& spec, Side side, uint64_t seed,
                       SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_RUNNER_H_
