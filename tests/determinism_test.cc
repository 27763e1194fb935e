// Determinism regression for the event engine.
//
// The simulator's contract is bit-identical replay: the same seeded workload
// must execute the same events in the same order at the same timestamps, no
// matter how the run is sliced into RunUntil segments. This pins the engine's
// (when, seq) total order — zero-delay ring lane, calendar-queue slots, and
// the overflow heap all merge back into one deterministic schedule. The same
// contract is then checked one level up, on whole application stacks.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/check/history.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/net/cost_model.h"
#include "src/net/fabric.h"
#include "src/obs/metrics.h"
#include "src/rs/prism_rs.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sync/sync.h"
#include "src/tx/prism_tx.h"

namespace prism {
namespace {

using net::Fabric;
using net::HostId;
using sim::Event;
using sim::Micros;
using sim::Nanos;
using sim::Seconds;
using sim::Simulator;
using sim::SleepFor;
using sim::Spawn;
using sim::Task;
using sim::TimePoint;

constexpr int kHosts = 4;
constexpr int kClients = 3;
constexpr int kMessagesPerClient = 40;

struct World {
  Simulator sim;
  Fabric fabric;
  uint64_t order_hash = 1469598103934665603ull;  // FNV-1a offset basis
  uint64_t delivered = 0;
  uint64_t dropped = 0;

  explicit World(net::CostModel model)
      : fabric(&sim, model, /*loss_seed=*/0xD5EED) {}

  // Folds one observation into the delivery-order hash. Only simulation-
  // deterministic values go in (ids, sim time) — never host pointers.
  void Mix(uint64_t x) {
    order_hash ^= x;
    order_hash *= 1099511628211ull;  // FNV prime
  }
};

// Plain-function coroutine with by-value params (see the GCC 12 lambda
// warning in sim/task.h).
Task<void> Client(World* w, int id, HostId src) {
  Rng rng(0xC0FFEEull + static_cast<uint64_t>(id) * 7919);
  for (int i = 0; i < kMessagesPerClient; ++i) {
    co_await SleepFor(&w->sim, Nanos(static_cast<int64_t>(
                                   rng.NextBelow(50'000))));
    const HostId dst = static_cast<HostId>(rng.NextBelow(kHosts));
    const size_t payload = 16 + rng.NextBelow(2048);
    auto done = std::make_shared<Event>(&w->sim);
    const uint64_t tag = static_cast<uint64_t>(id) * 1000003 + i;
    w->fabric.Send(
        src, dst, payload,
        [w, tag, done] {
          w->delivered++;
          w->Mix(tag);
          w->Mix(static_cast<uint64_t>(w->sim.Now()));
          w->Mix(1);
          done->Set();
        },
        [w, tag, done] {
          w->dropped++;
          w->Mix(tag);
          w->Mix(static_cast<uint64_t>(w->sim.Now()));
          w->Mix(2);
          done->Set();
        });
    co_await done->Wait();
  }
}

struct RunResult {
  uint64_t executed;
  TimePoint final_now;
  uint64_t order_hash;
  uint64_t delivered;
  uint64_t dropped;
  uint64_t fabric_total;
  uint64_t fabric_lost;
  uint64_t fabric_retransmissions;
  uint64_t fabric_dropped;
  Simulator::Stats stats;
};

// Runs the full seeded workload, optionally pausing at each checkpoint via
// RunUntil before finishing with Run(). Lossy fabric + a mid-run host
// failure exercise retransmit timers, zero-delay drop notifications, and the
// wheel/ring merge; the far-future no-op exercises the overflow heap.
RunResult RunWorkload(const std::vector<TimePoint>& checkpoints) {
  net::CostModel model = net::CostModel::EvalCluster40G();
  model.loss_probability = 0.03;
  World w(model);
  for (int h = 0; h < kHosts; ++h) w.fabric.AddHost("h" + std::to_string(h));
  for (int c = 0; c < kClients; ++c) {
    Spawn(Client(&w, c, static_cast<HostId>(c)));
  }
  w.sim.Schedule(Micros(300), [&w] { w.fabric.SetHostUp(3, false); });
  w.sim.Schedule(Micros(800), [&w] { w.fabric.SetHostUp(3, true); });
  w.sim.Schedule(Seconds(1), [] {});  // overflow-lane exerciser
  for (TimePoint t : checkpoints) w.sim.RunUntil(t);
  w.sim.Run();
  return RunResult{
      w.sim.executed_events(), w.sim.Now(),           w.order_hash,
      w.delivered,             w.dropped,             w.fabric.total_messages(),
      w.fabric.lost_messages(), w.fabric.retransmissions(),
      w.fabric.dropped_messages(), w.sim.stats()};
}

void ExpectIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.order_hash, b.order_hash);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.fabric_total, b.fabric_total);
  EXPECT_EQ(a.fabric_lost, b.fabric_lost);
  EXPECT_EQ(a.fabric_retransmissions, b.fabric_retransmissions);
  EXPECT_EQ(a.fabric_dropped, b.fabric_dropped);
  EXPECT_EQ(a.stats.zero_delay_events, b.stats.zero_delay_events);
  EXPECT_EQ(a.stats.timer_events, b.stats.timer_events);
  EXPECT_EQ(a.stats.overflow_events, b.stats.overflow_events);
  EXPECT_EQ(a.stats.heap_callables, b.stats.heap_callables);
}

TEST(DeterminismTest, WorkloadIsNonTrivial) {
  RunResult r = RunWorkload({});
  // The workload must actually traverse every engine lane for the replay
  // assertions below to mean anything.
  EXPECT_EQ(r.delivered + r.dropped,
            static_cast<uint64_t>(kClients * kMessagesPerClient));
  EXPECT_GT(r.fabric_retransmissions, 0u);
  EXPECT_GT(r.dropped, 0u);
  EXPECT_GT(r.stats.zero_delay_events, 0u);
  EXPECT_GT(r.stats.timer_events, 0u);
  EXPECT_GT(r.stats.overflow_events, 0u);
}

TEST(DeterminismTest, RepeatedRunsAreBitIdentical) {
  ExpectIdentical(RunWorkload({}), RunWorkload({}));
}

TEST(DeterminismTest, RunUntilCheckpointsDoNotPerturbReplay) {
  RunResult straight = RunWorkload({});
  RunResult sliced = RunWorkload(
      {Micros(50), Micros(123), Micros(300), Micros(777), Micros(5000)});
  ExpectIdentical(straight, sliced);
  // Slicing even finer — a checkpoint every 10 µs through the busy phase —
  // must not change anything either.
  std::vector<TimePoint> fine;
  for (int i = 1; i <= 200; ++i) fine.push_back(Micros(10) * i);
  ExpectIdentical(straight, RunWorkload(fine));
}

// ---- determinism under a full chaos schedule ----
//
// Same contract, harder workload: a seeded ChaosMonkey drives crash/restart
// epochs, directed partitions, loss bursts, and latency spikes through the
// fabric while the clients run. The injected faults — and every purge /
// retransmit / drop they cause — must replay bit-identically, sliced or not.
RunResult RunChaosWorkload(uint64_t seed,
                           const std::vector<TimePoint>& checkpoints) {
  World w(net::CostModel::EvalCluster40G());
  for (int h = 0; h < kHosts; ++h) w.fabric.AddHost("h" + std::to_string(h));
  chaos::ChaosOptions copts;
  copts.seed = seed;
  copts.crashable = {2, 3};
  copts.partition_hosts = {0, 1, 2, 3};
  copts.partition_count = 3;
  chaos::ChaosMonkey monkey(&w.fabric, copts);
  monkey.Arm();
  for (int c = 0; c < kClients; ++c) {
    Spawn(Client(&w, c, static_cast<HostId>(c)));
  }
  // Far-future no-op: keeps final Now() checkpoint-independent (RunUntil
  // advances the clock even past the last real event) and exercises the
  // overflow lane like the base workload.
  w.sim.Schedule(Seconds(1), [] {});
  for (TimePoint t : checkpoints) w.sim.RunUntil(t);
  w.sim.Run();
  // Fold the fault-path counters into the order hash so a divergence in
  // purge/partition behavior is caught even if delivery counts agree.
  w.Mix(w.fabric.purged_messages());
  w.Mix(w.fabric.partitioned_messages());
  w.Mix(static_cast<uint64_t>(monkey.crashes_injected()));
  w.Mix(static_cast<uint64_t>(monkey.partitions_injected()));
  return RunResult{
      w.sim.executed_events(), w.sim.Now(),           w.order_hash,
      w.delivered,             w.dropped,             w.fabric.total_messages(),
      w.fabric.lost_messages(), w.fabric.retransmissions(),
      w.fabric.dropped_messages(), w.sim.stats()};
}

TEST(DeterminismTest, ChaosScheduleReplaysBitIdentically) {
  RunResult straight = RunChaosWorkload(7, {});
  ExpectIdentical(straight, RunChaosWorkload(7, {}));
  // Checkpoints inside and around the chaos window must not perturb the
  // injected faults or anything downstream of them.
  RunResult sliced = RunChaosWorkload(
      7, {Micros(40), Micros(250), Micros(900), Micros(3000), Micros(9000)});
  ExpectIdentical(straight, sliced);
  std::vector<TimePoint> fine;
  for (int i = 1; i <= 300; ++i) fine.push_back(Micros(5) * i);
  ExpectIdentical(straight, RunChaosWorkload(7, fine));
}

TEST(DeterminismTest, DifferentChaosSeedsDiverge) {
  // Sanity: the chaos schedule actually affects the run (otherwise the
  // replay assertions above would be vacuous).
  RunResult a = RunChaosWorkload(7, {});
  RunResult b = RunChaosWorkload(8, {});
  EXPECT_NE(a.order_hash, b.order_hash);
}

// ---- full-stack replay ----
//
// A seeded application stack — clients, servers, RDMA/PRISM verbs and the
// fabric on one simulator — rerun from scratch must reproduce every
// client-visible outcome, the recorded checker history, the executed-event
// count and the metrics snapshot. (PRISM-KV and consensus reruns are pinned
// by obs_determinism_test.)

struct StackRun {
  std::vector<std::string> client_log;  // "client: outcome", in order
  std::vector<std::string> history;     // recorded history, in order
  uint64_t executed = 0;
  obs::MetricsSnapshot snapshot;
};

std::string CodeName(const Status& s) {
  return s.ok() ? "ok" : std::to_string(static_cast<int>(s.code()));
}

std::string OpToString(const check::Op& op) {
  return std::to_string(op.client) + "/" + std::to_string(op.key) + "/" +
         (op.type == check::OpType::kRead ? "r" : "w") + "/" +
         std::to_string(op.value) + "/" + std::to_string(op.invoke) + "/" +
         std::to_string(op.response) + "/" +
         std::to_string(static_cast<int>(op.outcome)) + "/" +
         std::to_string(op.done ? 1 : 0);
}

void FinishStackRun(const Simulator& sim, const Fabric& fabric,
                    const std::vector<std::vector<std::string>>& logs,
                    StackRun* out) {
  for (size_t c = 0; c < logs.size(); ++c) {
    for (const std::string& line : logs[c]) {
      out->client_log.push_back(std::to_string(c) + ": " + line);
    }
  }
  out->executed = sim.executed_events();
  out->snapshot = fabric.obs().metrics().Snapshot();
}

void ExpectStackRerunIdentical(StackRun (*run)()) {
  const StackRun a = run();
  const StackRun b = run();
  EXPECT_FALSE(a.client_log.empty());
  EXPECT_FALSE(a.history.empty());
  EXPECT_EQ(a.client_log, b.client_log);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_TRUE(a.snapshot == b.snapshot)
      << "--- run 1 ---\n" << a.snapshot.ToText()
      << "--- run 2 ---\n" << b.snapshot.ToText();
}

// PRISM-RS: three replicas, three clients racing puts and gets on two
// blocks.
StackRun RunRsStack() {
  StackRun out;
  Simulator sim;
  Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  rs::PrismRsOptions opts;
  opts.n_blocks = 64;
  opts.buffers_per_replica = 512;
  rs::PrismRsCluster cluster(&fabric, 3, opts);
  check::HistoryRecorder history(&sim);

  constexpr int kClients = 3;
  constexpr int kOps = 8;
  std::vector<std::unique_ptr<rs::PrismRsClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<rs::PrismRsClient>(
        &fabric, fabric.AddHost("rsc-" + std::to_string(c)), &cluster,
        static_cast<uint16_t>(c + 1)));
    clients[c]->set_history(&history);
  }
  std::vector<std::vector<std::string>> logs(kClients);
  sim::TaskTracker tracker;
  for (int c = 0; c < kClients; ++c) {
    Spawn(
        [&, c]() -> Task<void> {
          Rng rng(901 + static_cast<uint64_t>(c));
          for (int i = 0; i < kOps; ++i) {
            const uint64_t block = rng.NextBelow(2);
            if (i == 0 || rng.NextBool(0.6)) {
              const std::string val = "rs-" + std::to_string(c) + "-" +
                                      std::to_string(i) + "-payload";
              Status s = co_await clients[c]->Put(block, BytesOfString(val));
              logs[c].push_back("put " + std::to_string(block) + " " +
                                CodeName(s));
            } else {
              auto r = co_await clients[c]->Get(block);
              logs[c].push_back(
                  "get " + std::to_string(block) + " " +
                  (r.ok() ? StringOfBytes(*r) : CodeName(r.status())));
            }
            co_await SleepFor(&sim, Micros(rng.NextInRange(2, 11)));
          }
        },
        &tracker);
  }
  sim.Run();
  PRISM_CHECK_EQ(tracker.live(), 0u) << "rs clients hung";
  for (const check::Op& op : history.ops()) {
    out.history.push_back(OpToString(op));
  }
  FinishStackRun(sim, fabric, logs, &out);
  return out;
}

// PRISM-TX: two shards, three clients running two-key read-modify-write
// transactions over six keys.
StackRun RunTxStack() {
  StackRun out;
  Simulator sim;
  Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  tx::PrismTxCluster cluster(&fabric, 2, tx::PrismTxOptions{});
  for (uint64_t k = 1; k <= 6; ++k) {
    PRISM_CHECK(cluster.LoadKey(k, BytesOfString("init-" + std::to_string(k)))
                    .ok());
  }
  check::TxHistoryRecorder history(&sim);

  constexpr int kClients = 3;
  constexpr int kTxns = 5;
  std::vector<std::unique_ptr<tx::PrismTxClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<tx::PrismTxClient>(
        &fabric, fabric.AddHost("txc-" + std::to_string(c)), &cluster,
        static_cast<uint16_t>(c + 1)));
    clients[c]->set_history(&history);
  }
  std::vector<std::vector<std::string>> logs(kClients);
  sim::TaskTracker tracker;
  for (int c = 0; c < kClients; ++c) {
    Spawn(
        [&, c]() -> Task<void> {
          Rng rng(4242 + static_cast<uint64_t>(c));
          for (int i = 0; i < kTxns; ++i) {
            auto txn = clients[c]->Begin();
            const uint64_t k1 = 1 + rng.NextBelow(6);
            const uint64_t k2 = 1 + rng.NextBelow(6);
            auto r1 = co_await clients[c]->Read(txn, k1);
            auto r2 = co_await clients[c]->Read(txn, k2);
            const std::string val =
                "tx-" + std::to_string(c) + "-" + std::to_string(i);
            clients[c]->Write(txn, k1, BytesOfString(val));
            Status s = co_await clients[c]->Commit(txn);
            logs[c].push_back(
                "txn " + std::to_string(k1) + "," + std::to_string(k2) +
                " r1=" + (r1.ok() ? StringOfBytes(*r1) : CodeName(r1.status())) +
                " r2=" + (r2.ok() ? StringOfBytes(*r2) : CodeName(r2.status())) +
                " commit=" + CodeName(s));
            co_await SleepFor(&sim, Micros(rng.NextInRange(1, 9)));
          }
        },
        &tracker);
  }
  sim.Run();
  PRISM_CHECK_EQ(tracker.live(), 0u) << "tx clients hung";
  for (const check::TxnRecord& t : history.txns()) {
    std::string line = std::to_string(t.client) + " " +
                       std::to_string(t.begin) + ".." +
                       std::to_string(t.end) + " outcome=" +
                       std::to_string(static_cast<int>(t.outcome));
    for (const auto& [key, value] : t.reads) {
      line += " r" + std::to_string(key) + "=" + std::to_string(value);
    }
    for (const auto& [key, value] : t.writes) {
      line += " w" + std::to_string(key) + "=" + std::to_string(value);
    }
    out.history.push_back(std::move(line));
  }
  FinishStackRun(sim, fabric, logs, &out);
  return out;
}

// One-sided synchronization, spinlock scheme: three clients updating and
// reading two keys of a remote hash index.
StackRun RunSyncStack() {
  StackRun out;
  Simulator sim;
  Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  sync::SyncIndexServer server(&fabric, fabric.AddHost("index"),
                               sync::SyncOptions{});
  constexpr uint64_t kKeys = 2;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    PRISM_CHECK(server.LoadKey(k, sync::InitialValue()).ok());
  }
  check::HistoryRecorder history(&sim);

  constexpr int kClients = 3;
  constexpr int kOps = 6;
  std::vector<std::unique_ptr<sync::SyncClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<sync::SyncClient>(
        &fabric, fabric.AddHost("sc-" + std::to_string(c)), &server,
        sync::SyncScheme::kSpinlock, static_cast<uint16_t>(c + 1),
        555 + static_cast<uint64_t>(c)));
    clients[c]->set_history(&history, c + 1);
  }
  std::vector<std::vector<std::string>> logs(kClients);
  sim::TaskTracker tracker;
  for (int c = 0; c < kClients; ++c) {
    Spawn(
        [&, c]() -> Task<void> {
          Rng rng(88 + static_cast<uint64_t>(c));
          for (int i = 0; i < kOps; ++i) {
            const uint64_t key = 1 + rng.NextBelow(kKeys);
            if (rng.NextBool(0.6)) {
              Status s =
                  co_await clients[c]->Update(key, sync::MakeValue(9, c, i));
              logs[c].push_back("upd " + std::to_string(key) + " " +
                                CodeName(s));
            } else {
              auto r = co_await clients[c]->Read(key);
              logs[c].push_back("read " + std::to_string(key) + " " +
                                (r.ok() ? std::to_string(check::IdOf(*r))
                                        : CodeName(r.status())));
            }
            co_await SleepFor(&sim, Micros(rng.NextInRange(0, 6)));
          }
        },
        &tracker);
  }
  sim.Run();
  PRISM_CHECK_EQ(tracker.live(), 0u) << "sync clients hung";
  for (const check::Op& op : history.ops()) {
    out.history.push_back(OpToString(op));
  }
  FinishStackRun(sim, fabric, logs, &out);
  // The server's final words are part of the observable state.
  for (uint64_t k = 1; k <= kKeys; ++k) {
    out.client_log.push_back("final " + std::to_string(k) + " " +
                             std::to_string(server.FinalValue(k)));
  }
  return out;
}

TEST(DeterminismTest, RsStackRerunIsBitIdentical) {
  ExpectStackRerunIdentical(&RunRsStack);
}

TEST(DeterminismTest, TxStackRerunIsBitIdentical) {
  ExpectStackRerunIdentical(&RunTxStack);
}

TEST(DeterminismTest, SyncStackRerunIsBitIdentical) {
  ExpectStackRerunIdentical(&RunSyncStack);
}

}  // namespace
}  // namespace prism
