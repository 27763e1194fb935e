// Deterministic fault injection for the simulated fabric.
//
// A ChaosMonkey expands a seed into a timed schedule of faults —
// crash/restart windows for designated hosts, asymmetric (directed) link
// partitions, wire-loss bursts, and propagation-latency spikes — and arms
// them on the simulator. The schedule is a pure function of ChaosOptions
// (including the seed), so a failing run is replayed exactly by re-running
// with the same seed; Describe() prints the expanded schedule for the log.
//
// Faults flow through the fabric's own failure hooks: SetHostUp (which
// purges in-flight traffic toward the dead incarnation), SetLinkBlocked,
// and mutable_cost(). All windows close by `horizon`, so a workload that
// outlives the schedule always runs its tail on a healed network.
#ifndef PRISM_SRC_CHAOS_CHAOS_H_
#define PRISM_SRC_CHAOS_CHAOS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/sim/time.h"

namespace prism::chaos {

enum class FaultKind {
  kCrash,
  kRestart,
  kPartitionStart,
  kPartitionStop,
  kLossBurstStart,
  kLossBurstStop,
  kLatencySpikeStart,
  kLatencySpikeStop,
};

struct FaultEvent {
  sim::TimePoint at = 0;
  FaultKind kind = FaultKind::kCrash;
  net::HostId a = 0;                // host (crash) or link source
  net::HostId b = 0;                // link destination
  double loss = 0.0;                // burst loss probability
  sim::Duration extra_latency = 0;  // spike propagation surcharge
  int window = -1;                  // fault window this event belongs to
};

struct ChaosOptions {
  uint64_t seed = 1;
  // Faults are scheduled inside [start, horizon]; every fault is healed by
  // horizon (restart / unblock / restore events are clamped to it).
  sim::TimePoint start = sim::Micros(50);
  sim::TimePoint horizon = sim::Millis(8);

  // Crash/restart: hosts eligible to crash, how many windows to attempt,
  // and the cap on concurrently-down hosts (an f-tolerant service keeps
  // quorums live with max_concurrent_crashes <= f).
  std::vector<net::HostId> crashable;
  int crash_count = 3;
  int max_concurrent_crashes = 1;
  sim::Duration min_downtime = sim::Micros(100);
  sim::Duration max_downtime = sim::Millis(1);

  // Directed partitions between pairs drawn from these hosts.
  std::vector<net::HostId> partition_hosts;
  int partition_count = 2;
  sim::Duration min_partition = sim::Micros(100);
  sim::Duration max_partition = sim::Millis(1);

  // Wire-loss bursts (temporarily raised CostModel::loss_probability).
  int loss_burst_count = 2;
  double loss_burst_probability = 0.4;
  sim::Duration min_burst = sim::Micros(50);
  sim::Duration max_burst = sim::Micros(500);

  // Propagation latency spikes (additive, so overlaps compose).
  int latency_spike_count = 2;
  sim::Duration spike_latency = sim::Micros(20);
  sim::Duration min_spike = sim::Micros(50);
  sim::Duration max_spike = sim::Micros(500);
};

class ChaosMonkey {
 public:
  // Builds the schedule immediately (it is inspectable before Arm).
  ChaosMonkey(net::Fabric* fabric, ChaosOptions opts);

  // Schedules every fault event on the fabric's simulator. Call once,
  // before running the sim past opts.start.
  void Arm();

  // Runs `hook` just after `host` restarts from a crash (e.g. to model
  // memory loss by wiping application state).
  void SetRestartHook(net::HostId host, std::function<void()> hook) {
    restart_hooks_[host] = std::move(hook);
  }

  const std::vector<FaultEvent>& schedule() const { return schedule_; }
  // The expanded schedule, one line per event, newline-terminated so a
  // witness printed after it starts on its own line.
  std::string Describe() const;

  // ---- fault windows ----
  //
  // Every fault comes as a start/stop pair (crash+restart, partition and
  // its heal, burst and its end, spike and its end) sharing one window id
  // in [0, window_count()). The schedule-space explorer's shrinker
  // minimizes fault schedules at window granularity: disabling a window
  // drops BOTH its events, so network/host state stays balanced. Disabling
  // never changes the RNG expansion — the full schedule is always built and
  // filtered only at Arm() time, so a shrunk run replays the surviving
  // windows at their original times.
  int window_count() const { return window_count_; }
  void SetWindowDisabled(int window, bool disabled);
  bool IsWindowDisabled(int window) const;

  // ---- counters (filled in as the armed schedule executes) ----
  int crashes_injected() const { return crashes_injected_; }
  int partitions_injected() const { return partitions_injected_; }
  int loss_bursts_injected() const { return loss_bursts_injected_; }
  int latency_spikes_injected() const { return latency_spikes_injected_; }

 private:
  void BuildSchedule();
  void Apply(const FaultEvent& ev);

  net::Fabric* fabric_;
  ChaosOptions opts_;
  std::vector<FaultEvent> schedule_;
  int window_count_ = 0;
  std::vector<bool> window_disabled_;
  std::map<net::HostId, std::function<void()>> restart_hooks_;
  double base_loss_ = 0.0;
  int crashes_injected_ = 0;
  int partitions_injected_ = 0;
  int loss_bursts_injected_ = 0;
  int latency_spikes_injected_ = 0;
};

}  // namespace prism::chaos

#endif  // PRISM_SRC_CHAOS_CHAOS_H_
