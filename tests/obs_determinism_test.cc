// Observability determinism regression: running a figure sweep point with
// tracing enabled must reproduce the run with tracing disabled exactly —
// identical (when,seq) event replay (asserted through the simulator's event
// counts and lane classification in the metrics snapshot) and identical
// bench outputs (every LoadPoint field, including the protocol-complexity
// rows). This is the test that keeps the tracer "pure recording": any
// instrumentation that schedules an event, perturbs an allocation the
// replay depends on, or changes an RNG draw shows up here as a diff.
//
// Also asserted: the Table-1 acceptance numbers — PRISM-KV reads take one
// round trip per op while Pilaf reads take two (§4.3 / Table 1), visible in
// the per-op accounting that BENCH_figs.json carries.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/stacks.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/consensus/consensus.h"
#include "src/explore/hooks.h"
#include "src/explore/workloads.h"
#include "src/kv/prism_kv.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/workload/open_loop.h"

namespace prism::bench {
namespace {

// Everything a point run can observably produce, for whole-run comparison.
struct PointResult {
  workload::LoadPoint point;
  obs::MetricsSnapshot snapshot;
};

void ExpectSamePoint(const workload::LoadPoint& a,
                     const workload::LoadPoint& b) {
  EXPECT_EQ(a.clients, b.clients);
  EXPECT_EQ(a.tput_mops, b.tput_mops);
  EXPECT_EQ(a.mean_us, b.mean_us);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.abort_rate, b.abort_rate);
  EXPECT_EQ(a.sim_events, b.sim_events);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_TRUE(a.ops[i] == b.ops[i]) << "op row " << a.ops[i].op;
  }
}

class ObsDeterminismTest : public ::testing::Test {
 protected:
  ObsDeterminismTest() { setenv("PRISM_BENCH_FAST", "1", 1); }
};

// A fast-mode closed-loop point: `clients` clients, class 0 drawn with
// probability `mix`.
ClosedLoad Load(int clients, uint64_t seed, double mix = 1.0,
                double theta = 0.0) {
  return {.clients = clients,
          .mix = mix,
          .theta = theta,
          .windows = BenchWindows::Default(),
          .seed = seed};
}

TEST_F(ObsDeterminismTest, TracingDoesNotPerturbPrismKvPoint) {
  constexpr int kClients = 4;
  constexpr uint64_t kSeed = 3004;

  // Baseline: no tracer, metrics snapshot only (the snapshot itself carries
  // sim.executed_events / zero_delay / timer / overflow / heap_callables /
  // pool_blocks, i.e. the full (when,seq) replay fingerprint).
  obs::PointObs base;
  base.want_metrics = true;
  PointResult off;
  off.point = RunClosedPoint<PrismKvStack>(Load(kClients, kSeed), &base);
  off.snapshot = base.snapshot;

  // Same point, tracer attached.
  obs::Tracer tracer;
  obs::PointObs traced;
  traced.tracer = &tracer;
  traced.want_metrics = true;
  PointResult on;
  on.point = RunClosedPoint<PrismKvStack>(Load(kClients, kSeed), &traced);
  on.snapshot = traced.snapshot;

  ExpectSamePoint(off.point, on.point);
  EXPECT_TRUE(off.snapshot == on.snapshot)
      << "tracing changed the metrics snapshot:\n--- off ---\n"
      << off.snapshot.ToText() << "--- on ---\n" << on.snapshot.ToText();

  // The traced run must actually have traced something, spanning the app,
  // transport, server and fabric layers.
  EXPECT_GT(tracer.finished_count(), 0u);
  bool saw_app = false, saw_prism = false, saw_chain = false, saw_net = false;
  for (const obs::SpanRecord& s : tracer.finished()) {
    if (s.name == "kv.get") saw_app = true;
    if (s.name == "prism.execute") saw_prism = true;
    if (s.name == "prism.chain") saw_chain = true;
    if (s.name == "net.flight") saw_net = true;
  }
  EXPECT_TRUE(saw_app && saw_prism && saw_chain && saw_net)
      << "app=" << saw_app << " prism=" << saw_prism
      << " chain=" << saw_chain << " net=" << saw_net;
  // And the point runner filled in the Perfetto process labels.
  EXPECT_FALSE(traced.host_names.empty());
}

TEST_F(ObsDeterminismTest, RerunIsBitIdentical) {
  // Two identical runs (as a --jobs worker would execute them) must agree
  // on every output bit — the property that makes per-point snapshots safe
  // to collect under any fan-out.
  obs::PointObs a, b;
  a.want_metrics = b.want_metrics = true;
  workload::LoadPoint pa = RunClosedPoint<PilafStack>(
      Load(2, 1001), &a, rdma::Backend::kHardwareNic);
  workload::LoadPoint pb = RunClosedPoint<PilafStack>(
      Load(2, 1001), &b, rdma::Backend::kHardwareNic);
  ExpectSamePoint(pa, pb);
  EXPECT_TRUE(a.snapshot == b.snapshot);
}

TEST_F(ObsDeterminismTest, ScheduleHookOffLeavesBenchPointUntouched) {
  // The exploration hook added to the simulator is strictly opt-in: a bench
  // point (which never installs one) must produce the same outputs as ever.
  // Guarded two ways — an uninstrumented rerun is bit-identical (above, and
  // re-asserted here against a fresh run), and the sim's event accounting
  // in the snapshot shows the production lanes executed every event.
  obs::PointObs a, b;
  a.want_metrics = b.want_metrics = true;
  workload::LoadPoint pa = RunClosedPoint<PrismKvStack>(Load(3, 2024), &a);
  workload::LoadPoint pb = RunClosedPoint<PrismKvStack>(Load(3, 2024), &b);
  ExpectSamePoint(pa, pb);
  EXPECT_TRUE(a.snapshot == b.snapshot);
}

TEST_F(ObsDeterminismTest, IdentityScheduleHookIsBitIdentical) {
  // The determinism contract extended to the exploration lane: a hook that
  // always picks the front of the enabled window replays the production
  // (when, seq) order exactly, for every explorable workload. Any diff here
  // means the hooked lane reorders, drops, or re-times events even when
  // asked not to — the soundness bug that would invalidate every explorer
  // verdict.
  namespace ex = prism::explore;
  for (ex::Workload w : {ex::Workload::kToy, ex::Workload::kRs,
                         ex::Workload::kKv, ex::Workload::kTx,
                         ex::Workload::kConsensus,
                         ex::Workload::kConsensusBuggy}) {
    for (uint64_t seed : {11ull, 42ull}) {
      ex::WorkloadOptions plain;
      plain.kind = w;
      plain.seed = seed;
      const ex::RunOutcome base = ex::RunWorkload(plain);

      ex::IdentityHook hook(sim::Nanos(1000));
      ex::WorkloadOptions hooked = plain;
      hooked.hook = &hook;
      const ex::RunOutcome same = ex::RunWorkload(hooked);

      EXPECT_EQ(same.ok, base.ok) << ex::WorkloadName(w) << " " << seed;
      EXPECT_EQ(same.executed_events, base.executed_events)
          << ex::WorkloadName(w) << " " << seed;
      EXPECT_EQ(same.history_fingerprint, base.history_fingerprint)
          << ex::WorkloadName(w) << " " << seed;
      EXPECT_EQ(same.fault_schedule, base.fault_schedule)
          << ex::WorkloadName(w) << " " << seed;
    }
  }
}

// ---- observability artifacts: traced reruns ----
//
// The attribution layer's determinism contract on whole open-loop stacks:
// attaching a tracer and per-op phase timelines executes exactly the events
// an untraced run executes, and a traced rerun reproduces the Chrome trace
// JSON, the timeline aggregate and the metrics snapshot byte for byte.

// Canonical text form of everything a TimelineStore aggregates: per-class
// exact phase sums, the latency digest, and the full exemplar reservoir
// (order, phase breakdown, pinned span counts).
std::string TimelineFingerprint(const obs::TimelineStore& st) {
  std::string fp = "started=" + std::to_string(st.started_ops()) +
                   " measured=" + std::to_string(st.measured_ops()) + "\n";
  for (size_t c = 0; c < st.n_classes(); ++c) {
    const LatencyHistogram::Summary sum = st.total_hist(c).Summarize();
    fp += st.class_name(c) + " n=" + std::to_string(sum.count) +
          " p999=" + std::to_string(sum.p999_us);
    for (int ph = 0; ph < obs::kNumPhases; ++ph) {
      fp += " " + std::to_string(st.phase_total_ns(c, ph));
    }
    for (const obs::TimelineStore::Exemplar& e : st.exemplars(c)) {
      fp += " | seq=" + std::to_string(e.seq) + " " +
            std::to_string(e.start_ns) + ".." + std::to_string(e.end_ns) +
            " spans=" + std::to_string(e.spans.size());
      for (int ph = 0; ph < obs::kNumPhases; ++ph) {
        fp += "," + std::to_string(e.phase_ns[ph]);
      }
    }
    fp += "\n";
  }
  return fp;
}

struct ObsRun {
  uint64_t executed = 0;
  std::string trace_json;   // empty when untraced
  std::string timeline_fp;  // empty when untraced
  obs::MetricsSnapshot snapshot;
};

ObsRun RunKvObs(bool traced) {
  ObsRun out;
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  obs::Tracer tracer;
  obs::TimelineStore store;
  if (traced) {
    fabric.obs().SetTracer(&tracer);
    store.SetTracer(&tracer);
  }
  net::HostId server_host = fabric.AddHost("kv-server");
  kv::PrismKvOptions kopts;
  kopts.n_buckets = 256;
  kopts.n_buffers = 512;
  kv::PrismKvServer server(&fabric, server_host, kopts);
  net::HostId ch = fabric.AddHost("kvc");
  kv::PrismKvClient get_client(&fabric, ch, &server);
  kv::PrismKvClient put_client(&fabric, ch, &server);

  workload::PoolOptions popts;
  popts.workers = 8;
  workload::OpenLoopPool pool(&sim, workload::ArrivalSpec::Poisson(4e5), 16,
                              Rng(515), popts);
  if (traced) pool.set_timelines(&store, &fabric.obs(), ch);
  pool.AddClass("kv.get", 0.5,
                [&](uint64_t draw, obs::OpTimeline*) -> sim::Task<void> {
                  auto r =
                      co_await get_client.Get("k" + std::to_string(draw % 8));
                  (void)r;  // misses are expected: gets race the puts
                });
  pool.AddClass("kv.put", 0.5,
                [&](uint64_t draw, obs::OpTimeline*) -> sim::Task<void> {
                  Status s = co_await put_client.Put(
                      "k" + std::to_string(draw % 8),
                      BytesOfString("v" + std::to_string(draw % 4)));
                  PRISM_CHECK(s.ok()) << s;
                });
  pool.Start(sim::Micros(50), sim::Micros(550));
  sim.Run();
  pool.CheckDrained();

  out.executed = sim.executed_events();
  out.snapshot = fabric.obs().metrics().Snapshot();
  if (traced) {
    out.trace_json = tracer.ToChromeJson(fabric.HostNames());
    out.timeline_fp = TimelineFingerprint(store);
  }
  return out;
}

// Tracing executes the untraced schedule, and a traced rerun reproduces
// every artifact byte for byte. Returns the first traced run.
ObsRun ExpectObsRerunIdentical(ObsRun (*run)(bool)) {
  const ObsRun untraced = run(false);
  const ObsRun t1 = run(true);
  const ObsRun t2 = run(true);
  EXPECT_EQ(untraced.executed, t1.executed);
  EXPECT_EQ(t1.executed, t2.executed);
  EXPECT_EQ(t1.trace_json, t2.trace_json);
  EXPECT_EQ(t1.timeline_fp, t2.timeline_fp);
  EXPECT_TRUE(t1.snapshot == t2.snapshot)
      << "--- run 1 ---\n" << t1.snapshot.ToText()
      << "--- run 2 ---\n" << t2.snapshot.ToText();
  return t1;
}

TEST_F(ObsDeterminismTest, KvPoolObsArtifactsRerunBitIdentical) {
  const ObsRun t = ExpectObsRerunIdentical(&RunKvObs);
  // The traced run actually recorded: spans exist and both client classes
  // aggregated phase time.
  EXPECT_NE(t.trace_json.find("kv.get"), std::string::npos);
  EXPECT_NE(t.timeline_fp.find("kv.get"), std::string::npos);
  EXPECT_NE(t.timeline_fp.find("kv.put"), std::string::npos);
}

// ---- consensus: complexity accounting and traced reruns ----

// The §5.10 accountant: with the leader elected and every replica granted,
// a consensus commit at n=3 is exactly two round trips (one PRISM chain per
// remote replica), and so is the permission-confirmed read. Lossless
// network, so the session tally is an exact multiple — any extra verb,
// retry, or regrant probe on the data path shows up as a diff here.
TEST_F(ObsDeterminismTest, ConsensusCommitIsTwoRoundTripsAtNThree) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  std::vector<net::HostId> hosts;
  for (int r = 0; r < 3; ++r) {
    hosts.push_back(fabric.AddHost("cons-r" + std::to_string(r)));
  }
  consensus::ConsensusCluster cluster(&fabric, hosts,
                                      consensus::ConsensusOptions{});
  consensus::ConsensusSession session(&cluster);
  constexpr int kOps = 8;
  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> sim::Task<void> {
        auto won = co_await cluster.Failover(0, nullptr);
        PRISM_CHECK(won.ok()) << won.status();
        // Let the election's heal chains finish so all three replicas are
        // granted (else a put would tally fewer than two remote chains).
        co_await sim::SleepFor(&sim, sim::Micros(100));
        PRISM_CHECK_EQ(cluster.node(0).granted_count(), 3);
        for (int i = 0; i < kOps; ++i) {
          auto put = co_await session.PutOn(0, 1 + (i % 2),
                                            consensus::MakeValue(5, 0, i),
                                            nullptr);
          PRISM_CHECK(put.status.ok()) << put.status;
        }
        for (int i = 0; i < kOps; ++i) {
          auto got = co_await session.GetOn(0, 1 + (i % 2), nullptr);
          PRISM_CHECK(got.ok()) << got.status();
        }
      },
      &tracker);
  sim.Run();
  ASSERT_EQ(tracker.live(), 0u);
  ASSERT_EQ(cluster.tracker().live(), 0u);
  // 2 RTs per put (commit chains) + 2 per get (heartbeat confirms); the
  // election's control traffic is charged to the node, not the session.
  EXPECT_EQ(session.round_trips(), static_cast<uint64_t>(2 * 2 * kOps));
  // One message exchange per chain — nothing else on the session (the
  // election's grant RPCs and heal chains tally on the node).
  EXPECT_EQ(session.tally().messages, static_cast<uint64_t>(2 * 2 * kOps));
  EXPECT_GT(cluster.node(0).control_tally().round_trips, 0u)
      << "election control plane should have done work";
}

// The ATTRIB/TS contract extended to the consensus stack: the leader is
// fixed at node 0 and an open-loop pool drives puts and heartbeat-confirmed
// gets through it.
ObsRun RunConsensusObs(bool traced) {
  ObsRun out;
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  obs::Tracer tracer;
  obs::TimelineStore store;
  if (traced) {
    fabric.obs().SetTracer(&tracer);
    store.SetTracer(&tracer);
  }
  std::vector<net::HostId> hosts;
  for (int r = 0; r < 3; ++r) {
    hosts.push_back(fabric.AddHost("cons-r" + std::to_string(r)));
  }
  consensus::ConsensusCluster cluster(&fabric, hosts,
                                      consensus::ConsensusOptions{});
  consensus::ConsensusSession put_session(&cluster);
  consensus::ConsensusSession get_session(&cluster);
  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> sim::Task<void> {
        auto won = co_await cluster.Failover(0, nullptr);
        PRISM_CHECK(won.ok()) << won.status();
      },
      &tracker);

  workload::PoolOptions popts;
  popts.workers = 8;
  workload::OpenLoopPool pool(&sim, workload::ArrivalSpec::Poisson(2e5), 16,
                              Rng(606), popts);
  if (traced) pool.set_timelines(&store, &fabric.obs(), hosts[0]);
  pool.AddClass("cons.put", 0.5,
                [&](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
                  auto put = co_await put_session.PutOn(
                      0, 1 + (draw % 4),
                      consensus::MakeValue(6, static_cast<int>(draw % 3),
                                           static_cast<int>(draw % 16)),
                      op);
                  PRISM_CHECK(put.status.ok()) << put.status;
                });
  pool.AddClass("cons.get", 0.5,
                [&](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
                  auto r = co_await get_session.GetOn(0, 1 + (draw % 4), op);
                  (void)r;  // kNotFound races the first puts — expected
                });
  pool.Start(sim::Micros(50), sim::Micros(550));
  sim.Run();
  pool.CheckDrained();
  PRISM_CHECK_EQ(tracker.live(), 0u);
  PRISM_CHECK_EQ(cluster.tracker().live(), 0u);

  out.executed = sim.executed_events();
  out.snapshot = fabric.obs().metrics().Snapshot();
  if (traced) {
    out.trace_json = tracer.ToChromeJson(fabric.HostNames());
    out.timeline_fp = TimelineFingerprint(store);
  }
  return out;
}

TEST_F(ObsDeterminismTest, ConsensusObsArtifactsRerunBitIdentical) {
  const ObsRun t = ExpectObsRerunIdentical(&RunConsensusObs);
  // The traced run actually attributed consensus work.
  EXPECT_NE(t.trace_json.find("cons.put"), std::string::npos);
  EXPECT_NE(t.timeline_fp.find("cons.put"), std::string::npos);
  EXPECT_NE(t.timeline_fp.find("cons.get"), std::string::npos);
}

TEST_F(ObsDeterminismTest, Table1RoundTripsPrismVsPilaf) {
  workload::LoadPoint prism_point =
      RunClosedPoint<PrismKvStack>(Load(2, 42), nullptr);
  workload::LoadPoint pilaf_point = RunClosedPoint<PilafStack>(
      Load(2, 42), nullptr, rdma::Backend::kHardwareNic);

  const obs::OpStats* prism_get = FindOp(prism_point, "kv.get");
  const obs::OpStats* pilaf_get = FindOp(pilaf_point, "kv.get");
  ASSERT_NE(prism_get, nullptr);
  ASSERT_NE(pilaf_get, nullptr);
  ASSERT_GT(prism_get->count, 0u);
  ASSERT_GT(pilaf_get->count, 0u);

  // Table 1: a PRISM KV read is one indirect-read round trip; Pilaf chases
  // the hash-table pointer with two RDMA READs. Lossless network, so the
  // totals are exact multiples.
  EXPECT_EQ(prism_get->totals.round_trips, prism_get->count);
  EXPECT_EQ(pilaf_get->totals.round_trips, 2 * pilaf_get->count);
  // Hardware-NIC verbs burn no host CPU; the default PRISM-KV deployment is
  // software, so each chain costs one (SmartNIC-class) cpu action.
  EXPECT_EQ(prism_get->totals.cpu_actions, prism_get->count);
  EXPECT_EQ(pilaf_get->totals.cpu_actions, 0u);
}

// ---- the figure rig on every paper stack ----

// Two runs of one closed-loop point agree on every output bit, and the
// point did work.
template <typename Stack, typename... StackArgs>
void ExpectStackRerunsIdentically(const ClosedLoad& load,
                                  StackArgs... stack_args) {
  obs::PointObs a, b;
  a.want_metrics = b.want_metrics = true;
  const workload::LoadPoint pa =
      RunClosedPoint<Stack>(load, &a, stack_args...);
  const workload::LoadPoint pb =
      RunClosedPoint<Stack>(load, &b, stack_args...);
  ExpectSamePoint(pa, pb);
  EXPECT_TRUE(a.snapshot == b.snapshot);
  EXPECT_GT(pa.tput_mops, 0.0);
  for (const char* op : Stack::kOps) {
    const obs::OpStats* row = FindOp(pa, op);
    ASSERT_NE(row, nullptr) << op;
    EXPECT_GT(row->count, 0u) << op;
  }
}

TEST_F(ObsDeterminismTest, EveryStackRerunsBitIdentically) {
  {
    SCOPED_TRACE("PRISM-KV");
    ExpectStackRerunsIdentically<PrismKvStack>(Load(3, 11, 0.5));
  }
  {
    SCOPED_TRACE("Pilaf");
    ExpectStackRerunsIdentically<PilafStack>(Load(3, 12, 0.5),
                                             rdma::Backend::kHardwareNic);
  }
  {
    SCOPED_TRACE("PRISM-RS");
    ExpectStackRerunsIdentically<PrismRsStack>(Load(3, 13, 0.5));
  }
  {
    SCOPED_TRACE("ABD-LOCK");
    ExpectStackRerunsIdentically<AbdLockStack>(Load(3, 14, 0.5),
                                               rdma::Backend::kHardwareNic);
  }
  {
    SCOPED_TRACE("PRISM-TX");
    ExpectStackRerunsIdentically<PrismTxStack>(Load(3, 15, 0.0, 0.9));
  }
  {
    SCOPED_TRACE("FaRM");
    ExpectStackRerunsIdentically<FarmStack>(Load(3, 16, 0.0, 0.9),
                                            rdma::Backend::kHardwareNic);
  }
}

// §6: a PRISM-RS op at 3 replicas is two chained phases against every
// replica, 6 round trips for both GET and PUT, which is rs_mixed's
// whole-run prism.rt_per_op of 6.0. Each phase returns on a quorum of 2
// replies, so the third reply lands during the client's next op and is
// counted there; only each client's last late reply falls outside every
// op. The requests are counted as they are sent, so they are exact.
TEST_F(ObsDeterminismTest, PrismRsOpsTakeSixRoundTripsAtThreeReplicas) {
  constexpr int kClients = 4;
  const workload::LoadPoint p =
      RunClosedPoint<PrismRsStack>(Load(kClients, 21, 0.5), nullptr);
  uint64_t ops = 0;
  uint64_t round_trips = 0;
  for (const char* op : {"rs.get", "rs.put"}) {
    const obs::OpStats* row = FindOp(p, op);
    ASSERT_NE(row, nullptr) << op;
    ASSERT_GT(row->count, 0u) << op;
    EXPECT_EQ(row->totals.messages, 6 * row->count) << op;
    ops += row->count;
    round_trips += row->totals.round_trips;
  }
  EXPECT_LE(round_trips, 6 * ops);
  EXPECT_GE(round_trips + kClients, 6 * ops);
}

// ABD-LOCK pays lock, read, write and unlock round trips per op, so it
// costs more round trips per op than PRISM-RS for both classes.
TEST_F(ObsDeterminismTest, AbdLockTakesMoreRoundTripsThanPrismRs) {
  const workload::LoadPoint prism_point =
      RunClosedPoint<PrismRsStack>(Load(4, 22, 0.5), nullptr);
  const workload::LoadPoint abd_point = RunClosedPoint<AbdLockStack>(
      Load(4, 22, 0.5), nullptr, rdma::Backend::kHardwareNic);
  EXPECT_GT(RtPerOp(abd_point, "abd.get"), RtPerOp(prism_point, "rs.get"));
  EXPECT_GT(RtPerOp(abd_point, "abd.put"), RtPerOp(prism_point, "rs.put"));
}

}  // namespace
}  // namespace prism::bench
