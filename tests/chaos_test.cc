// Deterministic chaos sweeps: PRISM-RS, PRISM-KV, PRISM-TX and the
// permission-guarded consensus log, each driven by a seeded ChaosMonkey
// (crash/restart, asymmetric partitions, loss bursts, latency spikes) while
// every client op is recorded into a history that the offline checkers
// (src/check) validate. A sweep point is explore::RunWorkload({kind, seed}),
// the one checked chaos run (src/explore/workloads.h), so every seed also
// gets the quiescent final-state oracle, and consensus the cross-replica
// log-safety oracle. A violating seed prints its fault schedule and a
// reproducer to save and replay with
//
//     explore_main --replay=repro.txt [--trace=PATH] [--metrics]
//
// The sweeps fan out over PRISM_JOBS workers (default: all cores). Also
// here: negative tests proving the checkers *reject* bad histories (a
// checker that accepts everything would pass any sweep), a crash-amnesia
// test proving the linearizability checker notices when a wiped quorum
// loses an acknowledged write, the value fingerprint's collision rules,
// and the chaos monkey's unit tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/check/checker.h"
#include "src/check/history.h"
#include "src/common/rng.h"
#include "src/explore/explore.h"
#include "src/explore/workloads.h"
#include "src/harness/sweep.h"
#include "src/rs/prism_rs.h"
#include "src/sim/task.h"

namespace prism {
namespace {

using explore::RunOutcome;
using explore::Workload;
using sim::Task;

// ---- the sweeps ----

struct SweepTotals {
  int faults = 0;
  uint64_t failovers = 0;
  uint64_t ok_ops = 0;
};

// A failing seed's banner. Its reproducer has no perturbations, so the
// replay re-runs the production schedule.
std::string Banner(Workload kind, uint64_t seed, const RunOutcome& r) {
  explore::Reproducer repro;
  repro.kind = kind;
  repro.seed = seed;
  repro.check_name = r.check_name;
  std::ostringstream os;
  os << explore::WorkloadName(kind) << " chaos seed " << seed << " failed ("
     << r.check_name << ") — save the reproducer below as repro.txt and "
     << "replay with:\n    explore_main --replay=repro.txt [--trace=PATH] "
     << "[--metrics]\n"
     << explore::FormatReproducer(repro) << r.fault_schedule << r.error;
  return os.str();
}

// Seeds 1..last_seed are independent single-threaded simulations, so they
// fan out across the harness thread pool; the assertions run here on the
// main thread afterwards, in seed order, so pass/fail and output are the
// same for any job count. The first failing seed ends the sweep; a clean
// sweep must actually have injected faults, not run on a quiet network.
SweepTotals RunChaosSweep(Workload kind, uint64_t last_seed) {
  std::vector<harness::SweepPoint<RunOutcome>> points;
  for (uint64_t seed = 1; seed <= last_seed; ++seed) {
    points.push_back(
        [kind, seed] { return explore::RunWorkload({kind, seed}); });
  }
  const std::vector<RunOutcome> runs =
      harness::RunSweep(points, harness::SweepOptions{});
  SweepTotals totals;
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunOutcome& r = runs[i];
    totals.faults += r.faults;
    totals.failovers += r.failovers;
    totals.ok_ops += r.ok_ops;
    if (!r.ok) {
      ADD_FAILURE() << Banner(kind, i + 1, r);
      return totals;
    }
  }
  EXPECT_GT(totals.faults, 100);
  return totals;
}

TEST(ChaosSweep, PrismRsLinearizable) {
  RunChaosSweep(Workload::kRs, 100);
}

TEST(ChaosSweep, PrismKvLinearizable) {
  RunChaosSweep(Workload::kKv, 100);
}

TEST(ChaosSweep, PrismTxReadCommitted) {
  RunChaosSweep(Workload::kTx, 100);
}

TEST(ConsensusChaosSweep, LinearizableWithAgreedLogs) {
  constexpr uint64_t kSeeds = 1000;
  const SweepTotals totals = RunChaosSweep(Workload::kConsensus, kSeeds);
  if (HasFailure()) return;
  // Real progress as well as real trouble: leader changes forced by the
  // faults, and plenty of acknowledged ops.
  EXPECT_GT(totals.failovers, kSeeds);
  EXPECT_GT(totals.ok_ops, kSeeds * 10);
}

// A replay's trace and metrics observe the run without changing it.
TEST(ChaosReplayTest, TracingLeavesTheOutcomeUnchanged) {
  for (Workload kind :
       {Workload::kRs, Workload::kKv, Workload::kTx, Workload::kConsensus}) {
    const RunOutcome plain = explore::RunWorkload({kind, 7});
    explore::WorkloadOptions opts{kind, 7};
    opts.trace_path = ::testing::TempDir() + "chaos_trace_" +
                      explore::WorkloadName(kind) + ".json";
    opts.metrics = true;
    const RunOutcome traced = explore::RunWorkload(opts);
    const char* name = explore::WorkloadName(kind);
    EXPECT_TRUE(traced.trace_written) << name;
    EXPECT_FALSE(traced.metrics.empty()) << name;
    EXPECT_TRUE(plain.ok) << name << ": " << plain.error;
    EXPECT_EQ(traced.ok, plain.ok) << name;
    EXPECT_EQ(traced.error, plain.error) << name;
    EXPECT_EQ(traced.fault_schedule, plain.fault_schedule) << name;
    EXPECT_EQ(traced.faults, plain.faults) << name;
    EXPECT_EQ(traced.failovers, plain.failovers) << name;
    EXPECT_EQ(traced.ok_ops, plain.ok_ops) << name;
    EXPECT_EQ(traced.executed_events, plain.executed_events) << name;
    EXPECT_EQ(traced.history_fingerprint, plain.history_fingerprint) << name;
    std::remove(opts.trace_path.c_str());
  }
}

// ---- crash amnesia: the checker must notice lost acknowledged writes ----
//
// ABD assumes replica memory survives restarts. Wipe all three replicas
// between an acknowledged Put and a Get: the Get returns the initial zero
// block, which no linearization can explain.
TEST(ChaosAmnesiaTest, CheckerDetectsQuorumWipe) {
  constexpr uint64_t kBlockSize = 64;
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  rs::PrismRsOptions opts;
  opts.n_blocks = 1;
  opts.block_size = kBlockSize;
  opts.buffers_per_replica = 64;
  rs::PrismRsCluster cluster(&fabric, 3, opts);
  check::HistoryRecorder history(&sim);
  net::HostId ch = fabric.AddHost("client");
  rs::PrismRsClient client(&fabric, ch, &cluster, 1);
  client.set_history(&history);

  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> Task<void> {
        Bytes v =
            explore::UniqueValue(kBlockSize, /*seed=*/7, /*client=*/1, 0);
        Status put = co_await client.Put(0, std::move(v));
        EXPECT_TRUE(put.ok());
        for (int i = 0; i < 3; ++i) {
          fabric.SetHostUp(i, false);
          fabric.SetHostUp(i, true);
          cluster.replica(i).WipeState();  // DRAM did not survive
        }
        // Advance time so the Get strictly follows the Put in real time
        // (equal response/invoke instants count as concurrent).
        co_await sim::SleepFor(&sim, sim::Micros(10));
        auto got = co_await client.Get(0);
        EXPECT_TRUE(got.ok());
      },
      &tracker);
  sim.Run();
  EXPECT_EQ(tracker.live(), 0u);

  std::ostringstream ops;
  for (const check::Op& op : history.ops()) ops << check::FormatOp(op) << "\n";
  auto res = check::CheckLinearizable(history.ops(),
                                      check::IdOf(Bytes(kBlockSize, 0)));
  EXPECT_FALSE(res.ok) << "checker accepted a history with a lost write:\n"
                       << ops.str();
}

// ---- negative checker tests ----
//
// A checker that accepts everything would pass every sweep; prove the
// rejection paths work on hand-crafted histories.

check::Op MakeOp(int client, uint64_t key, check::OpType type,
                 check::ValueId value, sim::TimePoint invoke,
                 sim::TimePoint response,
                 check::Outcome outcome = check::Outcome::kOk) {
  check::Op op;
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

constexpr check::ValueId kInit = 0x1111;
constexpr check::ValueId kA = 0xAAAA;
constexpr check::ValueId kB = 0xBBBB;
using check::OpType;
using check::Outcome;

// Value fingerprints: the checkers equate values by IdOf, so distinct
// values the sweeps write must never share an id, and no value may read as
// absent.
TEST(ValueIdTest, OneBitFlipInAnyWordOf512BValueChangesTheId) {
  // Every one-bit flip of a 512 B value, in any of its 64 words, gets an id
  // of its own.
  Bytes value(512);
  Rng rng(11);
  for (auto& b : value) b = static_cast<uint8_t>(rng.NextU64());
  std::set<check::ValueId> seen = {check::IdOf(value)};
  for (size_t bit = 0; bit < value.size() * 8; ++bit) {
    Bytes flipped = value;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_TRUE(seen.insert(check::IdOf(flipped)).second)
        << "word " << bit / 64 << " bit " << bit % 64;
  }
}

TEST(ValueIdTest, LengthMatters) {
  // Zero padding must not alias: every prefix of an all-zero buffer,
  // including the empty one, has an id of its own.
  const Bytes zeros(520, 0);
  std::set<check::ValueId> seen;
  for (size_t len = 0; len <= zeros.size(); ++len) {
    EXPECT_TRUE(seen.insert(check::IdOf(ByteView(zeros.data(), len))).second)
        << "len " << len;
  }
  EXPECT_NE(check::IdOf(Bytes{7}), check::IdOf(Bytes{7, 0}));
}

TEST(ValueIdTest, NoValueReadsAsAbsent) {
  EXPECT_NE(check::IdOf(Bytes{}), check::kAbsent);
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    Bytes v(rng.NextBelow(600), 0);
    if (i % 2 == 1) {
      for (auto& b : v) b = static_cast<uint8_t>(rng.NextU64());
    }
    EXPECT_NE(check::IdOf(v), check::kAbsent) << "value " << i;
  }
}

TEST(CheckerTest, AcceptsSequentialAndConcurrentHistory) {
  std::vector<check::Op> h = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10),
      MakeOp(2, 0, OpType::kRead, kA, 2, 12),    // concurrent: sees new
      MakeOp(3, 0, OpType::kRead, kInit, 3, 13),  // concurrent: sees old
      MakeOp(2, 0, OpType::kRead, kA, 20, 30),   // after: must see new
  };
  EXPECT_TRUE(check::CheckLinearizable(h, kInit).ok);
}

TEST(CheckerTest, RejectsStaleRead) {
  std::vector<check::Op> h = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10),
      MakeOp(2, 0, OpType::kRead, kInit, 20, 30),  // write done; stale read
  };
  auto res = check::CheckLinearizable(h, kInit);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("key=0"), std::string::npos) << res.error;
}

TEST(CheckerTest, RejectsValueRegression) {
  // Two sequential writes, then reads observing them in reverse order.
  std::vector<check::Op> h = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10),
      MakeOp(1, 0, OpType::kWrite, kB, 20, 30),
      MakeOp(2, 0, OpType::kRead, kB, 40, 50),
      MakeOp(2, 0, OpType::kRead, kA, 60, 70),  // regressed
  };
  EXPECT_FALSE(check::CheckLinearizable(h, kInit).ok);
}

TEST(CheckerTest, FailedWriteMustNotBeObserved) {
  std::vector<check::Op> h = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10, Outcome::kFailed),
      MakeOp(2, 0, OpType::kRead, kA, 20, 30),
  };
  EXPECT_FALSE(check::CheckLinearizable(h, kInit).ok);
}

TEST(CheckerTest, IndeterminateWriteMayApplyOrNot) {
  // Applied…
  std::vector<check::Op> applied = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10, Outcome::kIndeterminate),
      MakeOp(2, 0, OpType::kRead, kA, 20, 30),
  };
  EXPECT_TRUE(check::CheckLinearizable(applied, kInit).ok);
  // …or dropped…
  std::vector<check::Op> dropped = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10, Outcome::kIndeterminate),
      MakeOp(2, 0, OpType::kRead, kInit, 20, 30),
  };
  EXPECT_TRUE(check::CheckLinearizable(dropped, kInit).ok);
  // …but not both: once observed, the value cannot regress.
  std::vector<check::Op> both = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10, Outcome::kIndeterminate),
      MakeOp(2, 0, OpType::kRead, kA, 20, 30),
      MakeOp(2, 0, OpType::kRead, kInit, 40, 50),
  };
  EXPECT_FALSE(check::CheckLinearizable(both, kInit).ok);
}

TEST(CheckerTest, KeysCheckIndependently) {
  // Fine on key 0, broken on key 1 — the witness names key 1.
  std::vector<check::Op> h = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10),
      MakeOp(2, 0, OpType::kRead, kA, 20, 30),
      MakeOp(1, 1, OpType::kWrite, kB, 0, 10),
      MakeOp(2, 1, OpType::kRead, kInit, 20, 30),
  };
  auto res = check::CheckLinearizable(h, kInit);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("key=1"), std::string::npos) << res.error;
}

TEST(CheckerTest, RejectsOversizedKeyHistory) {
  std::vector<check::Op> h;
  for (size_t i = 0; i < check::kMaxOpsPerKey + 1; ++i) {
    h.push_back(MakeOp(1, 0, OpType::kWrite, kA + i,
                       sim::TimePoint(10 * i), sim::TimePoint(10 * i + 5)));
  }
  auto res = check::CheckLinearizable(h, kInit);
  EXPECT_FALSE(res.ok);
}

TEST(CheckerTest, ReadCommittedRejectsAbortedRead) {
  check::TxnRecord writer;
  writer.client = 1;
  writer.writes = {{5, kA}};
  writer.outcome = check::TxOutcome::kAborted;
  writer.begin = 0;
  writer.end = 10;
  writer.done = true;
  check::TxnRecord reader;
  reader.client = 2;
  reader.reads = {{5, kA}};  // observed an aborted write
  reader.outcome = check::TxOutcome::kCommitted;
  reader.begin = 20;
  reader.end = 30;
  reader.done = true;
  auto res = check::CheckReadCommitted({writer, reader}, {{5, kInit}});
  EXPECT_FALSE(res.ok);

  // The same read is fine if the writer committed — or might have.
  writer.outcome = check::TxOutcome::kCommitted;
  EXPECT_TRUE(check::CheckReadCommitted({writer, reader}, {{5, kInit}}).ok);
  writer.outcome = check::TxOutcome::kIndeterminate;
  EXPECT_TRUE(check::CheckReadCommitted({writer, reader}, {{5, kInit}}).ok);
}

TEST(CheckerTest, ReadCommittedRejectsPhantomValue) {
  check::TxnRecord reader;
  reader.client = 1;
  reader.reads = {{5, kB}};  // nobody ever wrote kB
  reader.outcome = check::TxOutcome::kCommitted;
  reader.done = true;
  EXPECT_FALSE(check::CheckReadCommitted({reader}, {{5, kInit}}).ok);
  // Initial value and absence are always explainable.
  reader.reads = {{5, kInit}};
  EXPECT_TRUE(check::CheckReadCommitted({reader}, {{5, kInit}}).ok);
  reader.reads = {{7, check::kAbsent}};
  EXPECT_TRUE(check::CheckReadCommitted({reader}, {{5, kInit}}).ok);
}

// ---- chaos monkey unit tests ----

TEST(ChaosMonkeyTest, ScheduleIsAPureFunctionOfOptions) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId a = fabric.AddHost("a");
  net::HostId b = fabric.AddHost("b");
  chaos::ChaosOptions opts;
  opts.seed = 42;
  opts.crashable = {a, b};
  opts.crash_count = 6;
  opts.partition_hosts = {a, b};
  chaos::ChaosMonkey m1(&fabric, opts);
  chaos::ChaosMonkey m2(&fabric, opts);
  // Newline-terminated, so a witness printed after it starts its own line.
  const std::string described = m1.Describe();
  ASSERT_FALSE(described.empty());
  EXPECT_EQ(described.back(), '\n');
  EXPECT_EQ(described, m2.Describe());
  ASSERT_EQ(m1.schedule().size(), m2.schedule().size());
  for (size_t i = 0; i < m1.schedule().size(); ++i) {
    const chaos::FaultEvent& e1 = m1.schedule()[i];
    const chaos::FaultEvent& e2 = m2.schedule()[i];
    EXPECT_EQ(e1.at, e2.at);
    EXPECT_EQ(e1.kind, e2.kind);
    EXPECT_EQ(e1.a, e2.a);
    EXPECT_EQ(e1.b, e2.b);
  }
  opts.seed = 43;
  chaos::ChaosMonkey m3(&fabric, opts);
  bool differs = m3.schedule().size() != m1.schedule().size();
  for (size_t i = 0; !differs && i < m1.schedule().size(); ++i) {
    differs = m1.schedule()[i].at != m3.schedule()[i].at ||
              m1.schedule()[i].kind != m3.schedule()[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosMonkeyTest, EveryFaultHealsByHorizonAndHooksFire) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId a = fabric.AddHost("a");
  net::HostId b = fabric.AddHost("b");
  net::HostId c = fabric.AddHost("c");
  const double base_loss = fabric.cost().loss_probability;
  const sim::Duration base_prop = fabric.cost().propagation;

  chaos::ChaosOptions opts;
  opts.seed = 42;
  opts.crashable = {a, b, c};
  opts.crash_count = 8;
  opts.max_concurrent_crashes = 2;
  opts.partition_hosts = {a, b, c};
  opts.partition_count = 4;
  chaos::ChaosMonkey monkey(&fabric, opts);
  int scheduled_crashes = 0;
  for (const chaos::FaultEvent& ev : monkey.schedule()) {
    if (ev.kind == chaos::FaultKind::kCrash) scheduled_crashes++;
  }
  ASSERT_GT(scheduled_crashes, 0);  // seed 42 must actually crash someone

  int hooks_fired = 0;
  for (net::HostId h : {a, b, c}) {
    monkey.SetRestartHook(h, [&] { hooks_fired++; });
  }
  monkey.Arm();
  sim.Run();

  EXPECT_EQ(monkey.crashes_injected(), scheduled_crashes);
  EXPECT_EQ(hooks_fired, scheduled_crashes);  // one restart per crash
  for (net::HostId h : {a, b, c}) {
    EXPECT_TRUE(fabric.IsHostUp(h));
    for (net::HostId g : {a, b, c}) {
      EXPECT_FALSE(fabric.IsLinkBlocked(h, g));
    }
  }
  EXPECT_EQ(fabric.cost().loss_probability, base_loss);
  EXPECT_EQ(fabric.cost().propagation, base_prop);
}

}  // namespace
}  // namespace prism
