// Tests for the schedule-space exploration engine (src/explore).
//
// The load-bearing properties, each pinned here:
//   * identity schedule — an installed hook that always picks the front
//     event reproduces the production engine bit-for-bit, for every
//     workload (soundness of the interception point);
//   * replay fidelity — re-running a PerturbHook's recorded decisions
//     through a ReplayHook reproduces the perturbed execution exactly (the
//     invariant the shrinker and the --replay artifact rest on);
//   * the differential final-state oracle is free of concurrency false
//     positives (admissible-set escalation) but rejects genuinely stale
//     final values;
//   * the shrinker returns a minimal failing reproducer, including
//     entangled perturbation pairs and fault-window minimization;
//   * negative end-to-end: the seeded buggy toy replica is found and shrunk
//     to <= 3 perturbations on EVERY seed, identically for any --jobs=N;
//   * positive end-to-end: the real PRISM-RS / KV / TX stacks survive the
//     same exploration budget with zero violations.
//
// Custom main: --jobs=N sets the sweep fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/check/checker.h"
#include "src/check/history.h"
#include "src/explore/explore.h"
#include "src/explore/hooks.h"
#include "src/explore/oracle.h"
#include "src/explore/toy_replica.h"
#include "src/explore/workloads.h"
#include "src/harness/sweep.h"
#include "src/net/fabric.h"
#include "src/sim/simulator.h"

namespace prism {

int g_explore_jobs = 0;  // --jobs=N; 0 resolves to DefaultJobs()

namespace explore {
namespace {

using check::Op;
using check::Outcome;
using check::OpType;
using check::ValueId;

// ---------- workload plumbing ----------

TEST(WorkloadTest, NamesRoundTrip) {
  for (Workload w :
       {Workload::kToy, Workload::kRs, Workload::kKv, Workload::kTx,
        Workload::kConsensus, Workload::kConsensusBuggy}) {
    Workload parsed;
    ASSERT_TRUE(WorkloadFromName(WorkloadName(w), &parsed));
    EXPECT_EQ(parsed, w);
  }
  Workload scratch;
  EXPECT_FALSE(WorkloadFromName("nonesuch", &scratch));
}

TEST(WorkloadTest, IdentityHookMatchesProductionEngine) {
  // The hooked lane with an identity pick is the production (when, seq)
  // order: same executed-event count, same recorded history, same fault
  // schedule — for every workload.
  for (Workload w :
       {Workload::kToy, Workload::kRs, Workload::kKv, Workload::kTx,
        Workload::kConsensus, Workload::kConsensusBuggy}) {
    for (uint64_t seed : {1ull, 7ull, 23ull}) {
      WorkloadOptions plain;
      plain.kind = w;
      plain.seed = seed;
      RunOutcome base = RunWorkload(plain);
      ASSERT_TRUE(base.ok) << WorkloadName(w) << " seed " << seed << ": "
                           << base.check_name << " " << base.error;

      IdentityHook hook(sim::Nanos(1000));
      WorkloadOptions hooked = plain;
      hooked.hook = &hook;
      RunOutcome same = RunWorkload(hooked);
      EXPECT_TRUE(same.ok) << WorkloadName(w) << " seed " << seed;
      EXPECT_EQ(same.executed_events, base.executed_events)
          << WorkloadName(w) << " seed " << seed;
      EXPECT_EQ(same.history_fingerprint, base.history_fingerprint)
          << WorkloadName(w) << " seed " << seed;
      EXPECT_EQ(same.fault_windows, base.fault_windows);
      EXPECT_EQ(same.fault_schedule, base.fault_schedule);
      EXPECT_GT(hook.steps(), 0u);
    }
  }
}

TEST(WorkloadTest, PerturbedRunReplaysExactly) {
  // Whatever a PerturbHook did — pass or fail — replaying its recorded
  // decision list reproduces the run exactly.
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    PerturbHook perturb(seed * 0xA5A5 + 1, sim::Nanos(1000), /*budget=*/3);
    WorkloadOptions wo;
    wo.kind = Workload::kToy;
    wo.seed = seed;
    wo.hook = &perturb;
    RunOutcome first = RunWorkload(wo);

    ReplayHook replay(sim::Nanos(1000), perturb.applied());
    wo.hook = &replay;
    RunOutcome second = RunWorkload(wo);

    EXPECT_EQ(second.ok, first.ok) << "seed " << seed;
    EXPECT_EQ(second.check_name, first.check_name) << "seed " << seed;
    EXPECT_EQ(second.executed_events, first.executed_events)
        << "seed " << seed;
    EXPECT_EQ(second.history_fingerprint, first.history_fingerprint)
        << "seed " << seed;
    EXPECT_EQ(replay.skipped(), 0) << "seed " << seed;
  }
}

TEST(WorkloadTest, PerturbHookRespectsBudget) {
  for (int budget : {0, 1, 2}) {
    PerturbHook hook(42, sim::Nanos(1000), budget, /*rate=*/1.0);
    WorkloadOptions wo;
    wo.kind = Workload::kToy;
    wo.seed = 9;
    wo.hook = &hook;
    (void)RunWorkload(wo);
    EXPECT_LE(static_cast<int>(hook.applied().size()), budget);
    if (budget == 0) {
      EXPECT_TRUE(hook.applied().empty());
    }
  }
}

// ---------- admissible final values ----------

Op MakeOp(int client, uint64_t key, OpType type, ValueId value,
          sim::TimePoint invoke, sim::TimePoint response, Outcome outcome) {
  Op op;
  op.client = client;
  op.key = key;
  op.type = type;
  op.value = value;
  op.invoke = invoke;
  op.response = response;
  op.outcome = outcome;
  op.done = true;
  return op;
}

Op Write(int client, uint64_t key, ValueId v, sim::TimePoint t0,
         sim::TimePoint t1, Outcome outcome = Outcome::kOk) {
  return MakeOp(client, key, OpType::kWrite, v, t0, t1, outcome);
}

bool Contains(const std::vector<ValueId>& vs, ValueId v) {
  return std::find(vs.begin(), vs.end(), v) != vs.end();
}

bool Contains(const std::vector<Perturbation>& ps, const Perturbation& p) {
  return std::find(ps.begin(), ps.end(), p) != ps.end();
}

bool Contains(const std::vector<int>& ws, int w) {
  return std::find(ws.begin(), ws.end(), w) != ws.end();
}

constexpr ValueId kInit = 0x1111;

TEST(AdmissibleFinalValuesTest, NoWritesIsInitialOnly) {
  std::vector<Op> history = {
      MakeOp(0, 5, OpType::kRead, kInit, 0, 10, Outcome::kOk)};
  EXPECT_EQ(check::AdmissibleFinalValues(history, 5, kInit),
            std::vector<ValueId>{kInit});
  // And an empty history behaves the same.
  EXPECT_EQ(check::AdmissibleFinalValues({}, 5, kInit),
            std::vector<ValueId>{kInit});
}

TEST(AdmissibleFinalValuesTest, StrictlyLaterOkWriteExcludesEarlier) {
  std::vector<Op> history = {Write(0, 1, 0xA, 0, 10),
                             Write(1, 1, 0xB, 20, 30)};
  const auto vs = check::AdmissibleFinalValues(history, 1, kInit);
  EXPECT_EQ(vs, std::vector<ValueId>{0xB});
}

TEST(AdmissibleFinalValuesTest, ConcurrentOkWritesBothAdmissible) {
  std::vector<Op> history = {Write(0, 1, 0xA, 0, 10),
                             Write(1, 1, 0xB, 5, 15)};
  const auto vs = check::AdmissibleFinalValues(history, 1, kInit);
  EXPECT_EQ(vs.size(), 2u);
  EXPECT_TRUE(Contains(vs, 0xA));
  EXPECT_TRUE(Contains(vs, 0xB));
  EXPECT_FALSE(Contains(vs, kInit));  // some ok write definitely applied
}

TEST(AdmissibleFinalValuesTest, IndeterminateWriteNeverExcluded) {
  // The indeterminate write has an unbounded install time: no later ok
  // write can rule it out, and it rules out nothing itself.
  std::vector<Op> history = {
      Write(0, 1, 0xA, 0, 10),
      Write(1, 1, 0xB, 20, 25, Outcome::kIndeterminate)};
  const auto vs = check::AdmissibleFinalValues(history, 1, kInit);
  EXPECT_TRUE(Contains(vs, 0xA));
  EXPECT_TRUE(Contains(vs, 0xB));
  EXPECT_FALSE(Contains(vs, kInit));
}

TEST(AdmissibleFinalValuesTest, IndeterminateOnlyKeepsInitial) {
  // It may never have applied, so the initial value stays admissible.
  std::vector<Op> history = {
      Write(0, 1, 0xA, 0, 10, Outcome::kIndeterminate)};
  const auto vs = check::AdmissibleFinalValues(history, 1, kInit);
  EXPECT_TRUE(Contains(vs, 0xA));
  EXPECT_TRUE(Contains(vs, kInit));
}

TEST(AdmissibleFinalValuesTest, FailedWritesHaveNoEffect) {
  std::vector<Op> history = {Write(0, 1, 0xA, 0, 10, Outcome::kFailed)};
  EXPECT_EQ(check::AdmissibleFinalValues(history, 1, kInit),
            std::vector<ValueId>{kInit});
}

TEST(AdmissibleFinalValuesTest, KeysAreIndependent) {
  std::vector<Op> history = {Write(0, 1, 0xA, 0, 10),
                             Write(1, 2, 0xB, 0, 10)};
  EXPECT_EQ(check::AdmissibleFinalValues(history, 1, kInit),
            std::vector<ValueId>{0xA});
  EXPECT_EQ(check::AdmissibleFinalValues(history, 2, kInit),
            std::vector<ValueId>{0xB});
  EXPECT_EQ(check::AdmissibleFinalValues(history, 3, kInit),
            std::vector<ValueId>{kInit});
}

// ---------- differential oracle ----------

TEST(OracleTest, RefModelAppliesOkWritesInResponseOrder) {
  RefModel model(kInit);
  std::vector<Op> history = {
      // Program order != response order: 0xB responds last and wins.
      Write(0, 1, 0xB, 5, 40),
      Write(1, 1, 0xA, 0, 10),
      Write(0, 2, 0xC, 0, 10),
      Write(1, 2, 0xD, 20, 25, Outcome::kFailed),
      Write(0, 3, 0xE, 0, 10, Outcome::kIndeterminate),
  };
  model.Replay(history);
  EXPECT_EQ(model.Expected(1), 0xB);
  EXPECT_EQ(model.Expected(2), 0xC);  // failed write ignored
  EXPECT_EQ(model.Expected(3), kInit);  // indeterminate not canonical
  EXPECT_EQ(model.Expected(99), kInit);  // untouched key
}

TEST(OracleTest, MatchingFinalStatePasses) {
  std::vector<Op> history = {Write(0, 1, 0xA, 0, 10),
                             Write(1, 1, 0xB, 20, 30)};
  const auto r = DiffFinalState(history, {{1, 0xB}}, kInit);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(OracleTest, RacingWriteMismatchIsNotViolation) {
  // The reference model expects the later-response write, but the observed
  // value is the OTHER racing write — admissible, so no violation.
  std::vector<Op> history = {Write(0, 1, 0xA, 0, 10),
                             Write(1, 1, 0xB, 5, 15)};
  const auto r = DiffFinalState(history, {{1, 0xA}}, kInit);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(OracleTest, StaleFinalValueIsViolation) {
  // 0xA was definitively overwritten by a strictly-later acknowledged
  // write; observing it after quiescence is a lost update.
  std::vector<Op> history = {Write(0, 1, 0xA, 0, 10),
                             Write(1, 1, 0xB, 20, 30)};
  const auto r = DiffFinalState(history, {{1, 0xA}}, kInit);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(OracleTest, NeverWrittenValueIsViolation) {
  std::vector<Op> history = {Write(0, 1, 0xA, 0, 10)};
  const auto r = DiffFinalState(history, {{1, 0xDEAD}}, kInit);
  EXPECT_FALSE(r.ok);
}

TEST(OracleTest, UntouchedKeyObservingInitialPasses) {
  const auto r = DiffFinalState({}, {{7, kInit}}, kInit);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(DiffFinalState({}, {{7, 0x2222}}, kInit).ok);
}

// ---------- reproducer artifact ----------

TEST(ReproducerTest, FormatParseRoundTrip) {
  Reproducer repro;
  repro.kind = Workload::kRs;
  repro.seed = 77;
  repro.delta = sim::Nanos(1500);
  repro.perturbations = {{12, 3}, {40, 1}, {90, 2}};
  repro.disabled_windows = {0, 3};
  repro.check_name = "linearizability";

  Reproducer back;
  std::string error;
  ASSERT_TRUE(ParseReproducer(FormatReproducer(repro), &back, &error))
      << error;
  EXPECT_EQ(back.kind, repro.kind);
  EXPECT_EQ(back.seed, repro.seed);
  EXPECT_EQ(back.delta, repro.delta);
  EXPECT_EQ(back.perturbations, repro.perturbations);
  EXPECT_EQ(back.disabled_windows, repro.disabled_windows);
  EXPECT_EQ(back.check_name, repro.check_name);
}

TEST(ReproducerTest, ParseToleratesCommentsAndBlanks) {
  Reproducer out;
  std::string error;
  EXPECT_TRUE(ParseReproducer(
      "prism-explore v1\n# a comment\n\nworkload toy\nseed 3\n", &out,
      &error))
      << error;
  EXPECT_EQ(out.kind, Workload::kToy);
  EXPECT_EQ(out.seed, 3u);
}

TEST(ReproducerTest, ParseRejectsMalformedInput) {
  Reproducer out;
  std::string error;
  // Wrong header.
  EXPECT_FALSE(ParseReproducer("prism-explore v9\nseed 1\n", &out, &error));
  EXPECT_NE(error.find("header"), std::string::npos);
  // Unknown directive.
  EXPECT_FALSE(
      ParseReproducer("prism-explore v1\nfrobnicate 1\n", &out, &error));
  // Unknown workload name.
  EXPECT_FALSE(
      ParseReproducer("prism-explore v1\nworkload zork\n", &out, &error));
  // Perturbation steps must strictly increase.
  EXPECT_FALSE(ParseReproducer(
      "prism-explore v1\nperturb 9 1\nperturb 9 2\n", &out, &error));
  // Negative delta / window.
  EXPECT_FALSE(ParseReproducer("prism-explore v1\ndelta -5\n", &out, &error));
  EXPECT_FALSE(
      ParseReproducer("prism-explore v1\ndisable-window -1\n", &out, &error));
}

TEST(ReproducerTest, FileRoundTripAndMissingFile) {
  Reproducer repro;
  repro.kind = Workload::kToy;
  repro.seed = 5;
  repro.delta = sim::Nanos(1000);
  repro.perturbations = {{3, 1}};
  const std::string path = ::testing::TempDir() + "explore_repro_test.txt";
  std::string error;
  ASSERT_TRUE(SaveReproducerFile(path, repro, &error)) << error;
  Reproducer back;
  ASSERT_TRUE(LoadReproducerFile(path, &back, &error)) << error;
  EXPECT_EQ(back.seed, repro.seed);
  EXPECT_EQ(back.perturbations, repro.perturbations);
  EXPECT_FALSE(
      LoadReproducerFile(path + ".nonexistent", &back, &error));
  EXPECT_FALSE(error.empty());
}

// ---------- shrinker ----------

TEST(ShrinkTest, RemovesEveryRedundantPerturbation) {
  // Failure depends only on perturbation {10, 1}; the rest is noise.
  const Perturbation needed{10, 1};
  auto runner = [&](const std::vector<Perturbation>& p,
                    const std::vector<int>& disabled) {
    RunOutcome o;
    o.ok = !Contains(p, needed);
    if (!o.ok) o.check_name = "synthetic";
    return o;
  };
  std::vector<Perturbation> initial = {{2, 1}, {5, 3}, needed, {30, 2}};
  const ShrinkResult res = Shrink(runner, initial, /*fault_windows=*/0);
  EXPECT_EQ(res.perturbations, std::vector<Perturbation>{needed});
  EXPECT_EQ(res.check_name, "synthetic");
  EXPECT_GT(res.runs, 0);
}

TEST(ShrinkTest, FindsEntangledPairAndMinimizesWindows) {
  // Failure needs BOTH {10,1} and {20,2} (removing either alone passes —
  // the singles pass can never separate them; the pairs pass must) AND
  // fault window 2 enabled.
  const Perturbation a{10, 1}, b{20, 2};
  auto runner = [&](const std::vector<Perturbation>& p,
                    const std::vector<int>& disabled) {
    RunOutcome o;
    const bool window2_enabled = !Contains(disabled, 2);
    o.ok = !(Contains(p, a) && Contains(p, b) && window2_enabled);
    if (!o.ok) o.check_name = "synthetic";
    return o;
  };
  std::vector<Perturbation> initial = {{1, 1}, a, {15, 2}, b, {44, 1}};
  const ShrinkResult res = Shrink(runner, initial, /*fault_windows=*/4);
  EXPECT_EQ(res.perturbations, (std::vector<Perturbation>{a, b}));
  // Every window except the required one is disabled away.
  EXPECT_EQ(res.disabled_windows, (std::vector<int>{0, 1, 3}));
  EXPECT_FALSE(Contains(res.disabled_windows, 2));
}

// ---------- chaos fault windows ----------

TEST(FaultWindowTest, EventsComeInBalancedPairs) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  std::vector<net::HostId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(fabric.AddHost("h" + std::to_string(i)));
  }
  chaos::ChaosOptions opts;
  opts.seed = 11;
  opts.crashable = hosts;
  opts.partition_hosts = hosts;
  chaos::ChaosMonkey monkey(&fabric, opts);
  ASSERT_GT(monkey.window_count(), 0);
  // Every scheduled event belongs to a window, and each window holds
  // exactly its start/stop pair.
  std::vector<int> per_window(static_cast<size_t>(monkey.window_count()), 0);
  for (const chaos::FaultEvent& ev : monkey.schedule()) {
    ASSERT_GE(ev.window, 0);
    ASSERT_LT(ev.window, monkey.window_count());
    per_window[static_cast<size_t>(ev.window)]++;
  }
  for (int count : per_window) EXPECT_EQ(count, 2);
}

TEST(FaultWindowTest, DisablingEveryWindowInjectsNothing) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  std::vector<net::HostId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(fabric.AddHost("h" + std::to_string(i)));
  }
  chaos::ChaosOptions opts;
  opts.seed = 11;
  opts.crashable = hosts;
  opts.partition_hosts = hosts;
  chaos::ChaosMonkey monkey(&fabric, opts);
  ASSERT_GT(monkey.window_count(), 0);
  for (int w = 0; w < monkey.window_count(); ++w) {
    EXPECT_FALSE(monkey.IsWindowDisabled(w));
    monkey.SetWindowDisabled(w, true);
    EXPECT_TRUE(monkey.IsWindowDisabled(w));
  }
  // Disabling filters at Arm() only; the built schedule is untouched (so a
  // shrunk run replays surviving windows at their original times).
  EXPECT_FALSE(monkey.schedule().empty());
  monkey.Arm();
  sim.Run();
  EXPECT_EQ(monkey.crashes_injected(), 0);
  EXPECT_EQ(monkey.partitions_injected(), 0);
  EXPECT_EQ(monkey.loss_bursts_injected(), 0);
  EXPECT_EQ(monkey.latency_spikes_injected(), 0);
  for (net::HostId h : hosts) EXPECT_TRUE(fabric.IsHostUp(h));
}

// ---------- end-to-end: the buggy toy replica ----------

// Tuned with tools/explore_main: budget 3 keeps the minimal counterexample
// small while 500 perturbed runs (stopping at the first hit; half burst at
// the prefix, half slide across the schedule — see ExploreSeed) find the
// bug on every seed in [1, 100]. The hungriest seed (19) needs ~310 runs.
ExploreOptions ToyOptions() {
  ExploreOptions opts;
  opts.runs = 500;
  opts.budget = 3;
  opts.rate = 0.3;
  opts.delta = sim::Nanos(1000);
  opts.stop_on_failure = true;
  opts.shrink = true;
  return opts;
}

TEST(ToyReplicaTest, CanonicalScheduleIsCorrect) {
  // The bug is schedule-dependent: without perturbation every seed passes,
  // which is why a plain chaos sweep can never catch it.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    WorkloadOptions wo;
    wo.kind = Workload::kToy;
    wo.seed = seed;
    RunOutcome o = RunWorkload(wo);
    EXPECT_TRUE(o.ok) << "seed " << seed << ": " << o.check_name << " "
                      << o.error;
  }
}

TEST(ToyReplicaTest, ExplorerFindsAndShrinksInjectedBugOnEverySeed) {
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= 100; ++s) seeds.push_back(s);
  const SweepReport report =
      ExploreSweep(Workload::kToy, seeds, ToyOptions(), g_explore_jobs);
  EXPECT_EQ(report.seeds, 100);
  EXPECT_EQ(report.failing_seeds, 100);
  for (const SeedReport& rep : report.reports) {
    ASSERT_GT(rep.failures, 0) << "seed " << rep.seed << " missed the bug";
    ASSERT_TRUE(rep.repro.has_value()) << "seed " << rep.seed;
    // Minimal counterexample: at least one reorder is required, and the
    // shrinker gets it down to at most three.
    EXPECT_GE(rep.repro->perturbations.size(), 1u) << "seed " << rep.seed;
    EXPECT_LE(rep.repro->perturbations.size(), 3u) << "seed " << rep.seed;
    // The minimized artifact still reproduces the violation.
    RunOutcome replay = ReplayReproducer(*rep.repro);
    EXPECT_FALSE(replay.ok) << "seed " << rep.seed;
    EXPECT_EQ(replay.check_name, rep.repro->check_name)
        << "seed " << rep.seed;
    // And it survives the text round trip.
    Reproducer back;
    std::string error;
    ASSERT_TRUE(ParseReproducer(FormatReproducer(*rep.repro), &back, &error))
        << error;
    EXPECT_EQ(back.perturbations, rep.repro->perturbations);
  }
}

TEST(ToyReplicaTest, SweepIsDeterministicAcrossJobCounts) {
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= 24; ++s) seeds.push_back(s);
  const SweepReport serial =
      ExploreSweep(Workload::kToy, seeds, ToyOptions(), /*jobs=*/1);
  const SweepReport parallel =
      ExploreSweep(Workload::kToy, seeds, ToyOptions(), /*jobs=*/4);
  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  EXPECT_EQ(serial.total_runs, parallel.total_runs);
  EXPECT_EQ(serial.failing_seeds, parallel.failing_seeds);
  for (size_t i = 0; i < serial.reports.size(); ++i) {
    const SeedReport& a = serial.reports[i];
    const SeedReport& b = parallel.reports[i];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.shrink_runs, b.shrink_runs);
    EXPECT_EQ(a.check_name, b.check_name);
    ASSERT_EQ(a.repro.has_value(), b.repro.has_value());
    if (a.repro.has_value()) {
      EXPECT_EQ(a.repro->perturbations, b.repro->perturbations)
          << "seed " << a.seed;
      EXPECT_EQ(a.repro->disabled_windows, b.repro->disabled_windows)
          << "seed " << a.seed;
    }
  }
}

// ---------- end-to-end: the real stacks stay clean ----------

TEST(RealStackTest, NoViolationsUnderBoundedReordering) {
  // The acceptance sweep: 100 seeds x 4 perturbed runs per stack. A failure
  // here is either a genuine protocol bug or an unsound reordering — both
  // stop the PR.
  ExploreOptions opts;
  opts.runs = 4;
  opts.budget = 8;
  opts.rate = 0.3;
  opts.delta = sim::Nanos(1000);
  opts.stop_on_failure = true;
  opts.shrink = true;
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= 100; ++s) seeds.push_back(s);
  for (Workload w : {Workload::kRs, Workload::kKv, Workload::kTx,
                     Workload::kConsensus}) {
    const SweepReport report = ExploreSweep(w, seeds, opts, g_explore_jobs);
    EXPECT_EQ(report.failing_seeds, 0) << WorkloadName(w);
    for (const SeedReport& rep : report.reports) {
      EXPECT_EQ(rep.failures, 0)
          << WorkloadName(w) << " seed " << rep.seed << ": "
          << rep.check_name << "\n"
          << rep.error
          << (rep.repro.has_value() ? "\n" + FormatReproducer(*rep.repro)
                                    : std::string());
    }
  }
}

// ---------- end-to-end: sync suite reproducer round trip ----------

// The defaults tools/explore_main resolves for the sync workloads
// (DefaultRuns/DefaultDelta). Of sync_buggy's first 300 seeds, 11 violate
// linearizability under them (6, 8, 60, 80, 83, 102, 120, 159, 213, 258,
// 273); seed 6, the first, shrinks to 3 perturbations.
ExploreOptions SyncExploreOptions() {
  ExploreOptions opts;
  opts.runs = DefaultRuns(Workload::kSyncBuggy);
  opts.delta = DefaultDelta(Workload::kSyncBuggy);
  opts.budget = 8;
  opts.rate = 0.3;
  opts.stop_on_failure = true;
  opts.shrink = true;
  return opts;
}

TEST(SyncReproducerTest, ShrunkBuggyReproTextRoundTripsAndReplays) {
  const SeedReport rep =
      ExploreSeed(Workload::kSyncBuggy, /*seed=*/6, SyncExploreOptions());
  ASSERT_GT(rep.failures, 0) << "positive control missed the torn read";
  ASSERT_TRUE(rep.repro.has_value());
  EXPECT_GE(rep.repro->perturbations.size(), 1u);
  EXPECT_LE(rep.repro->perturbations.size(), 5u);
  EXPECT_TRUE(rep.repro->disabled_windows.empty());  // chaos-free workload

  // The artifact survives the "prism-explore v1" text round trip and the
  // parsed-back copy replays to the same violation — this is exactly what
  // tools/explore_main --replay loads from disk (exit 0 path).
  Reproducer back;
  std::string error;
  ASSERT_TRUE(ParseReproducer(FormatReproducer(*rep.repro), &back, &error))
      << error;
  EXPECT_EQ(back.kind, Workload::kSyncBuggy);
  EXPECT_EQ(back.perturbations, rep.repro->perturbations);
  RunOutcome replay = ReplayReproducer(back);
  ASSERT_FALSE(replay.ok);
  EXPECT_EQ(replay.check_name, rep.repro->check_name);
  EXPECT_EQ(replay.error, rep.error);

  // Tampering pins the --replay exit-2 path: the shrunk artifact is
  // 1-minimal, so dropping any single perturbation stops it reproducing.
  for (size_t drop = 0; drop < back.perturbations.size(); ++drop) {
    Reproducer tampered = back;
    tampered.perturbations.erase(tampered.perturbations.begin() +
                                 static_cast<std::ptrdiff_t>(drop));
    RunOutcome weak = ReplayReproducer(tampered);
    EXPECT_TRUE(weak.ok) << "dropping perturbation " << drop
                         << " still reproduced — artifact not minimal";
  }
}

TEST(SyncReproducerTest, BuggySweepIsDeterministicAcrossJobCounts) {
  // Same shrunk artifacts regardless of sweep fan-out: the bytes a user
  // saves with --repro-out are independent of --jobs.
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= 12; ++s) seeds.push_back(s);
  const SweepReport serial =
      ExploreSweep(Workload::kSyncBuggy, seeds, SyncExploreOptions(),
                   /*jobs=*/1);
  const SweepReport parallel =
      ExploreSweep(Workload::kSyncBuggy, seeds, SyncExploreOptions(),
                   /*jobs=*/8);
  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  EXPECT_EQ(serial.total_runs, parallel.total_runs);
  EXPECT_EQ(serial.failing_seeds, parallel.failing_seeds);
  EXPECT_GT(serial.failing_seeds, 0) << "expected seeds 6 and 8 to violate";
  for (size_t i = 0; i < serial.reports.size(); ++i) {
    const SeedReport& a = serial.reports[i];
    const SeedReport& b = parallel.reports[i];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.error, b.error);
    ASSERT_EQ(a.repro.has_value(), b.repro.has_value());
    if (a.repro.has_value()) {
      EXPECT_EQ(FormatReproducer(*a.repro), FormatReproducer(*b.repro))
          << "seed " << a.seed;
    }
  }
}

// ---------- end-to-end: consensus split brain (revoke without quorum) ----

// The defaults tools/explore_main resolves for consensus_buggy
// (DefaultRuns/DefaultDelta): 128 sliding-burst runs at delta 2 µs find the
// split brain on every seed in [1, 100].
ExploreOptions ConsensusExploreOptions() {
  ExploreOptions opts;
  opts.runs = DefaultRuns(Workload::kConsensusBuggy);
  opts.delta = DefaultDelta(Workload::kConsensusBuggy);
  opts.budget = 8;
  opts.rate = 0.3;
  opts.stop_on_failure = true;
  opts.shrink = true;
  return opts;
}

TEST(ConsensusReproducerTest, CanonicalScheduleIsCorrect) {
  // Without reordering, the usurper's revoke beats the deposed leader's
  // commit chain at the shared replica, the write ends indeterminate, and
  // every canonical schedule is clean — the split brain is purely a
  // schedule race, invisible to a plain chaos sweep.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    WorkloadOptions wo;
    wo.kind = Workload::kConsensusBuggy;
    wo.seed = seed;
    RunOutcome o = RunWorkload(wo);
    EXPECT_TRUE(o.ok) << "seed " << seed << ": " << o.check_name << " "
                      << o.error;
  }
}

TEST(ConsensusReproducerTest, SplitBrainFoundShrunkAndReplayed) {
  const SeedReport rep = ExploreSeed(Workload::kConsensusBuggy, /*seed=*/3,
                                     ConsensusExploreOptions());
  ASSERT_GT(rep.failures, 0) << "positive control missed the split brain";
  EXPECT_EQ(rep.check_name, "linearizability");
  ASSERT_TRUE(rep.repro.has_value());
  // One delivery swap is the whole bug: the shrinker gets it down to at
  // most three reorders (usually exactly one).
  EXPECT_GE(rep.repro->perturbations.size(), 1u);
  EXPECT_LE(rep.repro->perturbations.size(), 3u);
  EXPECT_TRUE(rep.repro->disabled_windows.empty());  // chaos-free workload

  Reproducer back;
  std::string error;
  ASSERT_TRUE(ParseReproducer(FormatReproducer(*rep.repro), &back, &error))
      << error;
  EXPECT_EQ(back.kind, Workload::kConsensusBuggy);
  RunOutcome replay = ReplayReproducer(back);
  ASSERT_FALSE(replay.ok);
  EXPECT_EQ(replay.check_name, rep.repro->check_name);
  EXPECT_EQ(replay.error, rep.error);

  // 1-minimality: dropping any surviving perturbation stops it reproducing.
  for (size_t drop = 0; drop < back.perturbations.size(); ++drop) {
    Reproducer tampered = back;
    tampered.perturbations.erase(tampered.perturbations.begin() +
                                 static_cast<std::ptrdiff_t>(drop));
    RunOutcome weak = ReplayReproducer(tampered);
    EXPECT_TRUE(weak.ok) << "dropping perturbation " << drop
                         << " still reproduced — artifact not minimal";
  }
}

TEST(ConsensusReproducerTest, BuggySweepIsDeterministicAcrossJobCounts) {
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= 8; ++s) seeds.push_back(s);
  const SweepReport serial = ExploreSweep(
      Workload::kConsensusBuggy, seeds, ConsensusExploreOptions(), /*jobs=*/1);
  const SweepReport parallel = ExploreSweep(
      Workload::kConsensusBuggy, seeds, ConsensusExploreOptions(), /*jobs=*/8);
  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  EXPECT_EQ(serial.total_runs, parallel.total_runs);
  EXPECT_EQ(serial.failing_seeds, parallel.failing_seeds);
  EXPECT_EQ(serial.failing_seeds, 8) << "every seed should find the bug";
  for (size_t i = 0; i < serial.reports.size(); ++i) {
    const SeedReport& a = serial.reports[i];
    const SeedReport& b = parallel.reports[i];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.error, b.error);
    ASSERT_EQ(a.repro.has_value(), b.repro.has_value());
    if (a.repro.has_value()) {
      EXPECT_EQ(FormatReproducer(*a.repro), FormatReproducer(*b.repro))
          << "seed " << a.seed;
    }
  }
}

}  // namespace
}  // namespace explore
}  // namespace prism

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      prism::g_explore_jobs = std::stoi(arg.substr(7));
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
