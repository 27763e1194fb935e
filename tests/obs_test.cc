// Unit tests for the observability subsystem (src/obs): metrics-registry
// semantics, span parenting/causality in the tracer, the protocol-complexity
// accountant, and end-to-end span trees + Table-1 counting rules over real
// traced RPC / RDMA / PRISM operations.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/net/fabric.h"
#include "src/obs/obs.h"
#include "src/obs/timeline.h"
#include "src/prism/service.h"
#include "src/rdma/service.h"
#include "src/rpc/rpc.h"
#include "src/sim/task.h"

namespace prism::obs {
namespace {

using sim::Task;

// ---- metrics registry ----

TEST(MetricsTest, CounterGaugeHistogramSemantics) {
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("net", "msgs");
  Gauge* g = reg.AddGauge("net", "depth");
  HistogramMetric* h = reg.AddHistogram("rpc", "latency");
  c->Add();
  c->Add(4);
  g->Set(7);
  g->Add(-2);
  h->Record(1000);
  h->Record(3000);

  MetricsSnapshot s = reg.Snapshot();
  const MetricValue* cv = s.Find("net", "msgs");
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(cv->kind, MetricValue::Kind::kCounter);
  EXPECT_EQ(cv->counter, 5u);
  const MetricValue* gv = s.Find("net", "depth");
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->gauge, 5);
  const MetricValue* hv = s.Find("rpc", "latency");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, 2);
  EXPECT_DOUBLE_EQ(hv->mean_ns, 2000.0);
  EXPECT_EQ(hv->max_ns, 3000);
}

TEST(MetricsTest, SnapshotSortedByComponentNameHost) {
  MetricsRegistry reg;
  // Registered deliberately out of order.
  reg.AddCounter("rpc", "calls", "hostB")->Add(1);
  reg.AddCounter("net", "msgs")->Add(2);
  reg.AddCounter("rpc", "calls", "hostA")->Add(3);
  reg.AddCounter("prism", "chains")->Add(4);
  MetricsSnapshot s = reg.Snapshot();
  ASSERT_EQ(s.values.size(), 4u);
  EXPECT_EQ(s.values[0].component, "net");
  EXPECT_EQ(s.values[1].component, "prism");
  EXPECT_EQ(s.values[2].host, "hostA");
  EXPECT_EQ(s.values[3].host, "hostB");
}

TEST(MetricsTest, DisabledRegistryHandsOutSinksAndSnapshotsEmpty) {
  MetricsRegistry reg;
  reg.SetEnabled(false);
  Counter* a = reg.AddCounter("x", "a");
  Counter* b = reg.AddCounter("x", "b");
  EXPECT_EQ(a, b);  // shared sink slot: hot paths write one dead cache line
  a->Add(100);
  EXPECT_TRUE(reg.Snapshot().values.empty());
  EXPECT_EQ(reg.slot_count(), 0u);
}

TEST(MetricsTest, ResetZeroesOwnedSlots) {
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("net", "msgs");
  HistogramMetric* h = reg.AddHistogram("rpc", "lat");
  c->Add(9);
  h->Record(500);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.Find("net", "msgs")->counter, 0u);
  EXPECT_EQ(s.Find("rpc", "lat")->count, 0);
}

TEST(MetricsTest, ProvidersAppendAtSnapshotTime) {
  MetricsRegistry reg;
  int calls = 0;
  reg.AddProvider([&](MetricsSnapshot& out) {
    calls++;
    out.AddCounterValue("sim", "events", "", 42);
  });
  EXPECT_EQ(calls, 0);
  MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(calls, 1);
  ASSERT_NE(s.Find("sim", "events"), nullptr);
  EXPECT_EQ(s.Find("sim", "events")->counter, 42u);
}

TEST(MetricsTest, SnapshotsAreIsolatedValueCopies) {
  // The sweep stores one snapshot per point; later activity in the same
  // registry must not leak backwards into an already-taken snapshot.
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("net", "msgs");
  c->Add(1);
  MetricsSnapshot first = reg.Snapshot();
  c->Add(10);
  MetricsSnapshot second = reg.Snapshot();
  EXPECT_EQ(first.Find("net", "msgs")->counter, 1u);
  EXPECT_EQ(second.Find("net", "msgs")->counter, 11u);
  EXPECT_FALSE(first == second);
  EXPECT_TRUE(first == first);
}

TEST(MetricsTest, ToTextListsEveryValue) {
  MetricsRegistry reg;
  reg.AddCounter("net", "msgs", "srv")->Add(3);
  const std::string text = reg.Snapshot().ToText();
  EXPECT_NE(text.find("net.msgs"), std::string::npos) << text;
  EXPECT_NE(text.find("srv"), std::string::npos) << text;
  EXPECT_NE(text.find("3"), std::string::npos) << text;
}

// ---- tracer ----

TEST(TracerTest, BeginEndRecordsIntervalAndParentChain) {
  Tracer t;
  const SpanId root = t.Begin("kv.get", "app", 1, 100);
  const SpanId child = t.Begin("prism.execute", "prism", 1, 110, root);
  const SpanId grandchild = t.Begin("net.flight", "net", 1, 120, child);
  EXPECT_EQ(t.ParentOf(child), root);
  EXPECT_EQ(t.ParentOf(grandchild), child);
  t.End(grandchild, 130);
  t.End(child, 140);
  t.End(root, 150);
  ASSERT_EQ(t.finished_count(), 3u);
  EXPECT_EQ(t.open_count(), 0u);
  // Completion order; every span's root is the chain head.
  const auto& done = t.finished();
  EXPECT_EQ(done[0].name, "net.flight");
  EXPECT_EQ(done[2].name, "kv.get");
  for (const SpanRecord& s : done) EXPECT_EQ(s.root, root);
  EXPECT_EQ(done[0].start_ns, 120);
  EXPECT_EQ(done[0].end_ns, 130);
}

TEST(TracerTest, ParentOfClosedOrUnknownSpanIsZero) {
  Tracer t;
  const SpanId a = t.Begin("a", "app", 0, 0);
  const SpanId b = t.Begin("b", "app", 0, 0, a);
  t.End(b, 5);
  EXPECT_EQ(t.ParentOf(b), 0u);     // closed
  EXPECT_EQ(t.ParentOf(99999), 0u);  // never existed
  EXPECT_EQ(t.ParentOf(0), 0u);
}

TEST(TracerTest, CapDropsOldestFinishedSpans) {
  Tracer t(/*max_finished_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    t.EmitComplete("s" + std::to_string(i), "app", 0, i, i + 1);
  }
  EXPECT_EQ(t.finished_count(), 4u);
  EXPECT_EQ(t.dropped_count(), 6u);
  // Survivors are the last window.
  EXPECT_EQ(t.finished().front().name, "s6");
  EXPECT_EQ(t.finished().back().name, "s9");
}

TEST(TracerTest, ChromeJsonHasAsyncPairsAndProcessNames) {
  Tracer t;
  const SpanId root = t.Begin("kv.get", "app", 1, 1500);
  t.EmitComplete("net.flight", "net", 0, 1600, 2600, root);
  t.End(root, 3000);
  const std::string json = t.ToChromeJson({"server", "client"});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"client\""), std::string::npos);
  EXPECT_NE(json.find("kv.get"), std::string::npos);
  EXPECT_NE(json.find("net.flight"), std::string::npos);
}

TEST(TracerTest, OpenSpansFlushAsZeroLength) {
  Tracer t;
  t.Begin("stuck", "app", 0, 700);
  const std::string json = t.ToChromeJson();
  EXPECT_NE(json.find("stuck"), std::string::npos);
  EXPECT_EQ(t.open_count(), 1u);  // flushing does not close the span
}

// ---- op timeline: stamps registered ahead of their instant ----

TEST(OpTimelineTest, StampsAtFutureInstantsApplyInTimeOrder) {
  // Two exchanges of one op post at 0 and 100 (their frames leave 350 ns
  // later); the first answer arrives at 2000. Registered out of time order
  // and interleaved with a direct stamp, they land exactly as if each had
  // been stamped by an event at its own instant.
  OpTimeline t;
  t.Start(0, 0);
  t.Switch(Phase::kBatchWait, 0);
  t.SwitchAt(Phase::kWire, 350);
  t.Switch(Phase::kBatchWait, 100);  // the second exchange begins
  t.SwitchAt(Phase::kBatchWait, 2000);
  t.SwitchAt(Phase::kWire, 450);
  t.Switch(Phase::kResponder, 1500);  // request delivery
  t.Finish(2350);
  EXPECT_EQ(t.phase_ns(Phase::kBacklogWait), 0);
  EXPECT_EQ(t.phase_ns(Phase::kBatchWait), 350 + 350);  // [0,350) [2000,2350)
  EXPECT_EQ(t.phase_ns(Phase::kWire), 1150);            // [350,1500)
  EXPECT_EQ(t.phase_ns(Phase::kResponder), 500);        // [1500,2000)
  EXPECT_EQ(t.total_ns(), 2350);
}

TEST(OpTimelineTest, StampDueAtFinishIsDroppedAfterIt) {
  OpTimeline t;
  t.Start(0, 10);
  t.SwitchAt(Phase::kWire, 20);
  t.SwitchAt(Phase::kBatchWait, 40);  // after Finish: never applied
  t.Finish(30);
  t.Switch(Phase::kApp, 50);  // inert
  EXPECT_EQ(t.phase_ns(Phase::kBacklogWait), 10);
  EXPECT_EQ(t.phase_ns(Phase::kWire), 10);
  EXPECT_EQ(t.phase_ns(Phase::kBatchWait), 0);
  EXPECT_EQ(t.total_ns(), 20);
}

TEST(OpTimelineTest, ManyPendingStampsSpillAndKeepOrder) {
  // A wide fan-out registers more stamps than fit inline; ties apply in
  // registration order.
  OpTimeline t;
  t.Start(0, 0);
  for (int i = 9; i >= 0; --i) t.SwitchAt(Phase::kWire, 100 + 10 * i);
  t.SwitchAt(Phase::kResponder, 100);
  t.SwitchAt(Phase::kRetransmit, 250);
  t.Finish(300);
  EXPECT_EQ(t.phase_ns(Phase::kBacklogWait), 100);
  // At 100 the wire stamp, registered first, applies before the responder
  // one; the wire stamp at 110 ends the responder interval.
  EXPECT_EQ(t.phase_ns(Phase::kResponder), 10);  // [100, 110)
  EXPECT_EQ(t.phase_ns(Phase::kWire), 140);      // [110, 250)
  EXPECT_EQ(t.phase_ns(Phase::kRetransmit), 50);
  EXPECT_EQ(t.retransmits(), 1u);
}

// ---- op accountant ----

TEST(OpAccountantTest, AggregatesPerOpSorted) {
  OpAccountant acc;
  TransportTally one_rt;
  one_rt.round_trips = 1;
  one_rt.messages = 1;
  one_rt.bytes_out = 32;
  one_rt.bytes_in = 512;
  acc.Record("kv.put", one_rt);
  acc.Record("kv.get", one_rt);
  acc.Record("kv.get", one_rt);
  std::vector<OpStats> rows = acc.Collect();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].op, "kv.get");  // sorted by op name
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[0].totals.round_trips, 2u);
  EXPECT_EQ(rows[0].totals.bytes_in, 1024u);
  EXPECT_EQ(rows[1].op, "kv.put");
  acc.Reset();
  EXPECT_TRUE(acc.empty());
}

TEST(OpAccountantTest, TallyArithmetic) {
  TransportTally a;
  a.round_trips = 3;
  a.messages = 5;
  a.cpu_actions = 2;
  TransportTally b;
  b.round_trips = 1;
  b.messages = 2;
  b.cpu_actions = 2;
  TransportTally d = a - b;
  EXPECT_EQ(d.round_trips, 2u);
  EXPECT_EQ(d.messages, 3u);
  EXPECT_EQ(d.cpu_actions, 0u);
  EXPECT_TRUE(a == b + d);
}

// ---- end-to-end: spans and tallies over real traced operations ----

struct PingReq {
  int x = 0;
};

// One traced RPC call: the client span must parent the server's serve span
// and at least one fabric flight; counting rules give it exactly one
// message, one round trip and one cpu action.
TEST(ObsEndToEndTest, RpcCallSpanTreeAndTally) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  Tracer tracer;
  fabric.obs().SetTracer(&tracer);
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rpc::RpcServer server(&fabric, server_host);
  rpc::RpcClient client(&fabric, client_host);
  server.Register(1, [](const rpc::Message&) -> Task<rpc::MessagePtr> {
    co_return rpc::Message::Of(PingReq{7}, 64);
  });
  sim::Spawn([&]() -> Task<void> {
    const SpanId op =
        fabric.obs().StartSpan("app.ping", "app", client_host, sim.Now());
    rpc::MessagePtr msg = rpc::Message::Of(PingReq{1}, 32);
    auto resp = co_await client.Call(&server, 1, msg);
    EXPECT_TRUE(resp.ok());
    fabric.obs().FinishSpan(op, sim.Now());
  });
  sim.Run();

  // Index the finished spans by name.
  std::map<std::string, const SpanRecord*> by_name;
  SpanId app_id = 0;
  SpanId call_id = 0;
  for (const SpanRecord& s : tracer.finished()) {
    by_name[s.name] = &s;
    if (s.name == "app.ping") app_id = s.id;
    if (s.name == "rpc.call") call_id = s.id;
  }
  ASSERT_NE(by_name.count("app.ping"), 0u);
  ASSERT_NE(by_name.count("rpc.call"), 0u);
  ASSERT_NE(by_name.count("rpc.serve"), 0u);
  ASSERT_NE(by_name.count("net.flight"), 0u);
  EXPECT_EQ(by_name["rpc.call"]->parent, app_id);
  EXPECT_EQ(by_name["rpc.serve"]->parent, call_id);
  EXPECT_EQ(by_name["rpc.serve"]->host, server_host);
  // Every span of the op belongs to the app.ping causal chain.
  for (const SpanRecord& s : tracer.finished()) {
    EXPECT_EQ(s.root, app_id) << s.name;
  }
  // net.flight spans carry real wire time (closed, positive duration).
  EXPECT_GT(by_name["net.flight"]->end_ns, by_name["net.flight"]->start_ns);

  const TransportTally t = client.tally();
  EXPECT_EQ(t.messages, 1u);
  EXPECT_EQ(t.round_trips, 1u);
  EXPECT_EQ(t.cpu_actions, 1u);  // RPC always burns server CPU
  EXPECT_GT(t.bytes_out, 0u);
  EXPECT_GT(t.bytes_in, 0u);
}

// Hardware-NIC RDMA read: one round trip, zero cpu actions; the software
// stack charges one cpu action for the same verb. PRISM chains likewise
// charge for software/BlueField but not for projected hardware — the
// Table-1 distinction the accounting exists to surface.
TEST(ObsEndToEndTest, CountingRulesByBackendAndDeployment) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rdma::AddressSpace mem(1 << 20);
  auto region = *mem.CarveAndRegister(1 << 16, rdma::kRemoteAll);
  rdma::RdmaService hw(&fabric, server_host, rdma::Backend::kHardwareNic,
                       &mem);
  rdma::RdmaService sw(&fabric, server_host, rdma::Backend::kSoftwareStack,
                       &mem);
  core::PrismServer psw(&fabric, server_host, core::Deployment::kSoftware,
                        &mem);
  core::PrismServer phw(&fabric, server_host,
                        core::Deployment::kHardwareProjected, &mem);
  rdma::RdmaClient rc(&fabric, client_host);
  core::PrismClient pc(&fabric, client_host);
  sim::Spawn([&]() -> Task<void> {
    auto r1 = co_await rc.Read(&hw, region.rkey, region.base, 64);
    EXPECT_TRUE(r1.ok());
    auto r2 = co_await rc.Read(&sw, region.rkey, region.base, 64);
    EXPECT_TRUE(r2.ok());
    auto r3 = co_await pc.ExecuteOne(
        &psw, core::Op::Read(region.rkey, region.base, 64));
    EXPECT_TRUE(r3.ok());
    auto r4 = co_await pc.ExecuteOne(
        &phw, core::Op::Read(region.rkey, region.base, 64));
    EXPECT_TRUE(r4.ok());
  });
  sim.Run();

  const TransportTally rt = rc.tally();
  EXPECT_EQ(rt.messages, 2u);
  EXPECT_EQ(rt.round_trips, 2u);
  EXPECT_EQ(rt.cpu_actions, 1u);  // only the software-stack verb

  const TransportTally pt = pc.tally();
  EXPECT_EQ(pt.messages, 2u);
  EXPECT_EQ(pt.round_trips, 2u);
  EXPECT_EQ(pt.cpu_actions, 1u);  // only the software deployment
}

// The counting rules on the failure paths: an op whose server is down (the
// request is dropped, kUnavailable) or whose answer never comes back (the
// deadline fires, kTimedOut) still posted its request and drained its CQ,
// so messages, bytes_out, doorbells, cq_polls and cpu_actions count; with
// no response there is no round trip and no bytes_in. Same rule for a
// software-stack verb, a software PRISM chain and an RPC call.
TEST(ObsEndToEndTest, FailurePathCountingRules) {
  enum class Failure { kHostDown, kDeadline };
  for (Failure failure : {Failure::kHostDown, Failure::kDeadline}) {
    SCOPED_TRACE(failure == Failure::kHostDown ? "host down" : "deadline");
    sim::Simulator sim;
    net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
    net::HostId server_host = fabric.AddHost("server");
    net::HostId client_host = fabric.AddHost("client");
    rdma::AddressSpace mem(1 << 20);
    auto region = *mem.CarveAndRegister(1 << 16, rdma::kRemoteAll);
    rdma::RdmaService sw(&fabric, server_host, rdma::Backend::kSoftwareStack,
                         &mem);
    core::PrismServer psw(&fabric, server_host, core::Deployment::kSoftware,
                          &mem);
    rpc::RpcServer server(&fabric, server_host);
    server.Register(1, [](const rpc::Message&) -> Task<rpc::MessagePtr> {
      co_return rpc::Message::Empty(64);
    });
    rdma::RdmaClient rc(&fabric, client_host);
    core::PrismClient pc(&fabric, client_host);
    rpc::RpcClient cc(&fabric, client_host);
    const Code want = failure == Failure::kHostDown ? Code::kUnavailable
                                                    : Code::kTimedOut;
    if (failure == Failure::kHostDown) {
      fabric.SetHostUp(server_host, false);
    } else {
      // Requests get through and are served; every answer is lost.
      fabric.SetLinkBlocked(server_host, client_host, true);
    }
    int finished = 0;
    sim::Spawn([&]() -> Task<void> {
      auto r = co_await rc.Read(&sw, region.rkey, region.base, 64);
      EXPECT_EQ(r.code(), want);
      auto c = co_await pc.ExecuteOne(
          &psw, core::Op::Read(region.rkey, region.base, 64));
      EXPECT_EQ(c.code(), want);
      rpc::MessagePtr msg = rpc::Message::Empty(32);
      auto m = co_await cc.Call(&server, 1, msg);
      EXPECT_EQ(m.code(), want);
      finished++;
    });
    sim.Run();
    ASSERT_EQ(finished, 1);

    for (const TransportTally& t : {rc.tally(), pc.tally(), cc.tally()}) {
      EXPECT_EQ(t.messages, 1u);
      EXPECT_GT(t.bytes_out, 0u);
      EXPECT_EQ(t.doorbells, 1u);
      EXPECT_EQ(t.cq_polls, 1u);
      EXPECT_EQ(t.cpu_actions, 1u);
      EXPECT_EQ(t.round_trips, 0u);
      EXPECT_EQ(t.bytes_in, 0u);
    }
    EXPECT_EQ(rc.tally().bytes_out, 16u);
    EXPECT_EQ(cc.tally().bytes_out, 32u);
  }
}

// Every closure a client hands to Fabric::Send fits the simulator's inline
// event storage, so one pass over each verb, a chain and an RPC call puts
// no callable on the heap.
TEST(ObsEndToEndTest, TransportClosuresStayInline) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rdma::AddressSpace mem(1 << 20);
  auto region = *mem.CarveAndRegister(1 << 16, rdma::kRemoteAll);
  rdma::RdmaService hw(&fabric, server_host, rdma::Backend::kHardwareNic,
                       &mem);
  core::PrismServer psw(&fabric, server_host, core::Deployment::kSoftware,
                        &mem);
  rpc::RpcServer server(&fabric, server_host);
  server.Register(1, [](const rpc::Message&) -> Task<rpc::MessagePtr> {
    co_return rpc::Message::Of(PingReq{2}, 64);
  });
  rdma::RdmaClient rc(&fabric, client_host);
  core::PrismClient pc(&fabric, client_host);
  rpc::RpcClient cc(&fabric, client_host);
  int ok = 0;
  sim::Spawn([&]() -> Task<void> {
    const rdma::Addr a = region.base;
    auto r = co_await rc.Read(&hw, region.rkey, a, 64);
    ok += r.ok();
    Status w = co_await rc.Write(&hw, region.rkey, a, Bytes(64, 0x5a));
    ok += w.ok();
    auto cas = co_await rc.CompareSwap(&hw, region.rkey, a + 64, 0, 1);
    ok += cas.ok();
    auto faa = co_await rc.FetchAdd(&hw, region.rkey, a + 64, 1);
    ok += faa.ok();
    Bytes data(8, 0x01);
    Bytes mask(8, 0xff);
    auto mcas = co_await rc.MaskedCompareSwap(&hw, region.rkey, a + 128,
                                              data, mask, mask);
    ok += mcas.ok();
    auto chain = co_await pc.ExecuteOne(
        &psw, core::Op::Read(region.rkey, a, 64));
    ok += chain.ok();
    rpc::MessagePtr msg = rpc::Message::Of(PingReq{1}, 32);
    auto call = co_await cc.Call(&server, 1, msg);
    ok += call.ok();
  });
  sim.Run();
  EXPECT_EQ(ok, 7);
  EXPECT_EQ(sim.stats().heap_callables, 0u);
}

// The fabric hub registers component metrics: after a traced RPC exchange
// the snapshot carries net totals, per-host counters and sim stats.
TEST(ObsEndToEndTest, FabricSnapshotCarriesCrossLayerMetrics) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rpc::RpcServer server(&fabric, server_host);
  rpc::RpcClient client(&fabric, client_host);
  server.Register(1, [](const rpc::Message&) -> Task<rpc::MessagePtr> {
    co_return rpc::Message::Of(PingReq{0}, 64);
  });
  sim::Spawn([&]() -> Task<void> {
    rpc::MessagePtr msg = rpc::Message::Of(PingReq{1}, 32);
    auto resp = co_await client.Call(&server, 1, msg);
    EXPECT_TRUE(resp.ok());
  });
  sim.Run();

  MetricsSnapshot s = fabric.obs().metrics().Snapshot();
  const MetricValue* total = s.Find("net", "total_messages");
  ASSERT_NE(total, nullptr);
  EXPECT_GE(total->counter, 2u);  // request + response at minimum
  const MetricValue* served = s.Find("rpc", "calls_served", "server");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->counter, 1u);
  const MetricValue* events = s.Find("sim", "executed_events");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->counter, 0u);
  EXPECT_EQ(events->counter, sim.executed_events());
}

}  // namespace
}  // namespace prism::obs
