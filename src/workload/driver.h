// Closed-loop measurement harness shared by all benchmarks.
//
// Mirrors the paper's methodology: N closed-loop clients issue operations
// back to back; sweeping N traces out the throughput–latency curve of
// Figures 3, 4, 6 and 9. A Recorder discards a warmup window, then counts
// completions and latencies over the measurement window.
#ifndef PRISM_SRC_WORKLOAD_DRIVER_H_
#define PRISM_SRC_WORKLOAD_DRIVER_H_

#include <vector>

#include "src/common/histogram.h"
#include "src/obs/complexity.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace prism::workload {

class Recorder {
 public:
  Recorder(sim::Simulator* sim, sim::TimePoint measure_start,
           sim::TimePoint measure_end)
      : sim_(sim), start_(measure_start), end_(measure_end) {}

  // Records an operation that began at `op_start` and completed now.
  void Record(sim::TimePoint op_start) {
    const sim::TimePoint now = sim_->Now();
    if (op_start < start_ || now > end_) return;
    hist_.Record(now - op_start);
  }

  // Counts an abort/retry (measured window only), for OCC statistics.
  void RecordAbort() {
    const sim::TimePoint now = sim_->Now();
    if (now < start_ || now > end_) return;
    aborts_++;
  }

  bool InMeasureWindow() const {
    return sim_->Now() >= start_ && sim_->Now() <= end_;
  }
  sim::TimePoint measure_end() const { return end_; }
  const sim::Simulator& sim() const { return *sim_; }

  double ThroughputMops() const {
    const double seconds = sim::ToSeconds(end_ - start_);
    if (seconds <= 0) return 0;
    return static_cast<double>(hist_.count()) / seconds / 1e6;
  }

  const LatencyHistogram& hist() const { return hist_; }
  int64_t completed() const { return hist_.count(); }
  uint64_t aborts() const { return aborts_; }

 private:
  sim::Simulator* sim_;
  sim::TimePoint start_;
  sim::TimePoint end_;
  LatencyHistogram hist_;
  uint64_t aborts_ = 0;
};

// One row of a throughput–latency sweep.
struct LoadPoint {
  int clients = 0;
  double tput_mops = 0;
  // Open-loop drivers only: arrival rate offered during the measurement
  // window (0 for the closed-loop figure drivers, where load is implied by
  // the client count).
  double offered_mops = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double abort_rate = 0;  // aborts / (completions + aborts); OCC benches
  uint64_t sim_events = 0;  // engine events executed by this point's sim
  // Per-op-type protocol-complexity aggregates (Table 1 accounting) for the
  // point's whole simulation; harvested from the fabric hub's OpAccountant.
  std::vector<obs::OpStats> ops;
};

inline LoadPoint MakeLoadPoint(int clients, const Recorder& recorder) {
  LoadPoint p;
  p.clients = clients;
  p.tput_mops = recorder.ThroughputMops();
  auto s = recorder.hist().Summarize();
  p.mean_us = s.mean_us;
  p.p50_us = s.p50_us;
  p.p99_us = s.p99_us;
  p.p999_us = s.p999_us;
  const double denom =
      static_cast<double>(recorder.completed() + recorder.aborts());
  p.abort_rate = denom > 0 ? static_cast<double>(recorder.aborts()) / denom
                           : 0;
  p.sim_events = recorder.sim().executed_events();
  return p;
}

}  // namespace prism::workload

#endif  // PRISM_SRC_WORKLOAD_DRIVER_H_
