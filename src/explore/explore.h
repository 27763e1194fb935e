// The schedule-space exploration engine.
//
// ExploreSeed drives one (workload, seed) point through N perturbed
// executions (seeded PerturbHook per run). On the first violation it
// greedily shrinks the counterexample — first the perturbation list, then
// the fault schedule at window granularity — to a smallest-failing
// Reproducer that replays the violation deterministically from a text
// artifact (tools/explore_main --replay=<file>).
//
// ExploreSweep fans independent seeds across the harness thread pool
// (src/harness/sweep.h); per-seed work is self-contained, so the report is
// bit-identical for any job count.
//
// Shrinking is classic greedy delta-debugging: drop one element, re-run via
// a ReplayHook, keep the drop iff the violation persists; iterate to a
// fixpoint. Every kept intermediate state is a failing run, so the final
// reproducer is 1-minimal: removing any single surviving perturbation or
// re-enabling any single disabled fault window makes the violation vanish.
#ifndef PRISM_SRC_EXPLORE_EXPLORE_H_
#define PRISM_SRC_EXPLORE_EXPLORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/explore/hooks.h"
#include "src/explore/workloads.h"
#include "src/sim/time.h"

namespace prism::explore {

struct ExploreOptions {
  int runs = 8;               // perturbed executions per seed
  sim::Duration delta = sim::Nanos(1000);  // enabled-window width
  int budget = 8;             // max reorder decisions per run
  double rate = 0.3;          // per-step perturbation probability
  uint64_t explore_seed = 0xE5C4A9E5;  // base for per-run hook seeds
  bool stop_on_failure = true;  // stop a seed's runs at its first violation
  bool shrink = true;
};

// A minimized, replayable counterexample.
struct Reproducer {
  Workload kind = Workload::kToy;
  uint64_t seed = 1;
  sim::Duration delta = 0;
  std::vector<Perturbation> perturbations;
  std::vector<int> disabled_windows;
  std::string check_name;  // failing check, informational
};

// Text round-trip ("prism-explore v1" header, one directive per line) and
// file helpers for --replay artifacts.
std::string FormatReproducer(const Reproducer& repro);
bool ParseReproducer(const std::string& text, Reproducer* out,
                     std::string* error);
bool SaveReproducerFile(const std::string& path, const Reproducer& repro,
                        std::string* error);
bool LoadReproducerFile(const std::string& path, Reproducer* out,
                        std::string* error);

// Re-executes a reproducer through a ReplayHook, optionally writing the
// run's span trace to `trace_path` and its metrics snapshot into the
// outcome (WorkloadOptions::trace_path / metrics).
RunOutcome ReplayReproducer(const Reproducer& repro,
                            const std::string& trace_path = "",
                            bool metrics = false);

// Re-runs a candidate (perturbations, disabled fault windows) pair and
// reports the outcome; the shrinker is written against this so tests can
// shrink synthetic predicates without a simulator.
using ShrinkRunner = std::function<RunOutcome(
    const std::vector<Perturbation>&, const std::vector<int>&)>;

struct ShrinkResult {
  std::vector<Perturbation> perturbations;
  std::vector<int> disabled_windows;
  int runs = 0;  // executions the shrinker spent
  std::string check_name;
  std::string error;  // witness of the minimized failure
};

// `initial` must fail under `runner` with no windows disabled (checked).
// `fault_windows` is the number of windows eligible for disabling.
ShrinkResult Shrink(const ShrinkRunner& runner,
                    std::vector<Perturbation> initial, int fault_windows);

struct SeedReport {
  uint64_t seed = 0;
  int runs = 0;        // perturbed executions performed
  int failures = 0;    // how many of them violated a check
  int shrink_runs = 0;
  std::string check_name;  // first (minimized, if shrunk) failure's check
  std::string error;       // and its witness
  std::optional<Reproducer> repro;  // present iff a failure was shrunk
};

SeedReport ExploreSeed(Workload kind, uint64_t seed,
                       const ExploreOptions& opts);

struct SweepReport {
  int seeds = 0;
  int total_runs = 0;
  int failing_seeds = 0;
  std::vector<SeedReport> reports;  // aligned with the input seed list
};

SweepReport ExploreSweep(Workload kind, const std::vector<uint64_t>& seeds,
                         const ExploreOptions& opts, int jobs = 0);

}  // namespace prism::explore

#endif  // PRISM_SRC_EXPLORE_EXPLORE_H_
