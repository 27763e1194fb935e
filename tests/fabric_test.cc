// Tests for the fabric's loss, retransmission, and failure semantics.
//
// The contract (fabric.h): exactly one of on_delivery / on_dropped fires per
// Send — on_delivery once the last byte arrives (after any transport-level
// retransmissions), on_dropped when an endpoint is down at attempt time or
// retransmissions are exhausted. A host that dies while the message is in
// flight swallows the delivery silently (no on_dropped: the wire attempt
// already succeeded, the receiver just isn't there anymore).
#include <gtest/gtest.h>

#include <cstdint>

#include "src/net/cost_model.h"
#include "src/net/fabric.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace prism::net {
namespace {

using sim::Micros;
using sim::Simulator;

CostModel LossyModel(double p, int max_retransmits) {
  CostModel m = CostModel::EvalCluster40G();
  m.loss_probability = p;
  m.max_retransmits = max_retransmits;
  return m;
}

TEST(FabricTest, RetransmitExhaustionFiresDroppedExactlyOnce) {
  Simulator sim;
  Fabric fabric(&sim, LossyModel(/*p=*/1.0, /*max_retransmits=*/3));
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  int delivered = 0;
  int dropped = 0;
  fabric.Send(a, b, 64, [&] { delivered++; }, [&] { dropped++; });
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(dropped, 1);
  // Initial attempt + 3 retransmissions, all lost.
  EXPECT_EQ(fabric.lost_messages(), 4u);
  EXPECT_EQ(fabric.retransmissions(), 3u);
  EXPECT_EQ(fabric.dropped_messages(), 1u);
  // The exhaustion verdict lands on the last (lost) attempt, after three
  // full retransmit timeouts.
  EXPECT_EQ(sim.Now(), fabric.cost().retransmit_timeout * 3);
}

TEST(FabricTest, LostFrameIsRetransmittedAndDelivered) {
  // With 50% loss and a fixed seed the chain is deterministic; the message
  // must eventually get through within the retransmit budget.
  Simulator sim;
  Fabric fabric(&sim, LossyModel(/*p=*/0.5, /*max_retransmits=*/20));
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  int delivered = 0;
  int dropped = 0;
  for (int i = 0; i < 8; ++i) {
    fabric.Send(a, b, 64, [&] { delivered++; }, [&] { dropped++; });
  }
  sim.Run();
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(dropped, 0);
  EXPECT_GT(fabric.retransmissions(), 0u);
  EXPECT_EQ(fabric.lost_messages(), fabric.retransmissions());
}

TEST(FabricTest, PartialLossAccountingBalances) {
  Simulator sim;
  Fabric fabric(&sim, LossyModel(/*p=*/0.2, /*max_retransmits=*/2));
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  constexpr int kSends = 500;
  int delivered = 0;
  int dropped = 0;
  for (int i = 0; i < kSends; ++i) {
    fabric.Send(a, b, 128, [&] { delivered++; }, [&] { dropped++; });
  }
  sim.Run();
  // Exactly one callback per Send, no duplicates, no losses of the verdict.
  EXPECT_EQ(delivered + dropped, kSends);
  EXPECT_EQ(fabric.dropped_messages(), static_cast<uint64_t>(dropped));
  // Every retransmission corresponds to a lost frame that had retry budget.
  EXPECT_GT(fabric.lost_messages(), 0u);
  EXPECT_GE(fabric.lost_messages(), fabric.retransmissions());
}

TEST(FabricTest, SendToDownHostDropsImmediately) {
  Simulator sim;
  Fabric fabric(&sim, CostModel::EvalCluster40G());
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  fabric.SetHostUp(b, false);
  int delivered = 0;
  int dropped = 0;
  fabric.Send(a, b, 64, [&] { delivered++; }, [&] { dropped++; });
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(sim.Now(), 0);  // verdict is a zero-delay event
  EXPECT_EQ(fabric.total_messages(), 0u);  // never reached the wire
}

TEST(FabricTest, SendWithoutDroppedCallbackIsSilent) {
  Simulator sim;
  Fabric fabric(&sim, CostModel::EvalCluster40G());
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  fabric.SetHostUp(b, false);
  int delivered = 0;
  fabric.Send(a, b, 64, [&] { delivered++; });  // no on_dropped overload
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(fabric.dropped_messages(), 1u);
}

TEST(FabricTest, HostDyingMidFlightSwallowsDelivery) {
  Simulator sim;
  Fabric fabric(&sim, CostModel::EvalCluster40G());
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  int delivered = 0;
  int dropped = 0;
  fabric.Send(a, b, 4096, [&] { delivered++; }, [&] { dropped++; });
  // The wire attempt succeeded, so no on_dropped; but the receiver dies
  // before the last byte lands, so no on_delivery either.
  sim.Schedule(sim::Nanos(100), [&] { fabric.SetHostUp(b, false); });
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(fabric.total_messages(), 1u);
  EXPECT_EQ(fabric.dropped_messages(), 0u);
}

TEST(FabricTest, RetransmitNoticesReceiverDeath) {
  // Loss keeps the message bouncing; the receiver dies during the retry
  // window, so a later attempt observes the down host and fires on_dropped.
  Simulator sim;
  Fabric fabric(&sim, LossyModel(/*p=*/1.0, /*max_retransmits=*/10));
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  int delivered = 0;
  int dropped = 0;
  fabric.Send(a, b, 64, [&] { delivered++; }, [&] { dropped++; });
  sim.Schedule(Micros(30), [&] { fabric.SetHostUp(b, false); });
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(dropped, 1);
  // Fewer attempts than the full budget: the down check cut the chain short.
  EXPECT_LT(fabric.retransmissions(), 10u);
}

TEST(FabricTest, CrashRestartPurgesInFlightTraffic) {
  // A message launched toward incarnation N of a host must NOT be delivered
  // to incarnation N+1: a "crashed" host loses whatever was addressed to it,
  // even if it restarts before the bytes land.
  Simulator sim;
  Fabric fabric(&sim, CostModel::EvalCluster40G());
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  int delivered = 0;
  int dropped = 0;
  fabric.Send(a, b, 4096, [&] { delivered++; }, [&] { dropped++; });
  sim.Schedule(sim::Nanos(100), [&] {
    fabric.SetHostUp(b, false);
    fabric.SetHostUp(b, true);  // bounce: up again before the last byte
  });
  sim.Run();
  EXPECT_EQ(delivered, 0);  // the old incarnation's traffic is gone
  EXPECT_EQ(dropped, 0);    // the wire attempt itself succeeded
  EXPECT_EQ(fabric.purged_messages(), 1u);
  // The restarted incarnation receives fresh traffic normally.
  fabric.Send(a, b, 64, [&] { delivered++; });
  sim.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(FabricTest, RetransmitChainTornDownByRestart) {
  // A retransmit chain pending toward a host that crash/restarts mid-window
  // is torn down (on_dropped) rather than delivered to the new incarnation —
  // even though the host is up again when the retry timer fires.
  Simulator sim;
  Fabric fabric(&sim, LossyModel(/*p=*/1.0, /*max_retransmits=*/10));
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  int delivered = 0;
  int dropped = 0;
  fabric.Send(a, b, 64, [&] { delivered++; }, [&] { dropped++; });
  sim.Schedule(Micros(30), [&] {
    fabric.SetHostUp(b, false);
    fabric.SetHostUp(b, true);
  });
  sim.Run();
  EXPECT_TRUE(fabric.IsHostUp(b));  // up at teardown time: epoch decided it
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(fabric.purged_messages(), 1u);
  EXPECT_LT(fabric.retransmissions(), 10u);  // chain cut short
  EXPECT_EQ(fabric.HostEpoch(b), 1u);
}

TEST(FabricTest, BlockedLinkRetransmitsUntilUnblocked) {
  Simulator sim;
  Fabric fabric(&sim, CostModel::EvalCluster40G());
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  fabric.SetLinkBlocked(a, b, true);
  int forward = 0;
  int reverse = 0;
  fabric.Send(a, b, 64, [&] { forward++; });
  fabric.Send(b, a, 64, [&] { reverse++; });  // partition is directed
  sim.Schedule(Micros(50), [&] { fabric.SetLinkBlocked(a, b, false); });
  sim.RunUntil(Micros(40));
  EXPECT_EQ(forward, 0);   // still partitioned
  EXPECT_EQ(reverse, 1);   // reverse direction unaffected
  sim.Run();
  EXPECT_EQ(forward, 1);   // a retry after the heal gets through
  EXPECT_GT(fabric.partitioned_messages(), 0u);
  EXPECT_GT(fabric.retransmissions(), 0u);
}

TEST(FabricTest, PermanentPartitionExhaustsToDrop) {
  Simulator sim;
  Fabric fabric(&sim, LossyModel(/*p=*/0.0, /*max_retransmits=*/3));
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  fabric.SetLinkBlocked(a, b, true);
  int delivered = 0;
  int dropped = 0;
  fabric.Send(a, b, 64, [&] { delivered++; }, [&] { dropped++; });
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(dropped, 1);
  // Initial attempt + every retransmission hit the blocked link.
  EXPECT_EQ(fabric.partitioned_messages(), 4u);
}

// ---- folded client costs (Fold) ----

TEST(FabricTest, FoldedSendLeavesAfterPostAndDeliversAfterCompletion) {
  // A send folded with (post, completion) delivers exactly `completion`
  // after the same frame sent plainly `post` later would have.
  Simulator sim;
  Fabric fabric(&sim, CostModel::EvalCluster40G());
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  sim::TimePoint plain_at = -1, folded_at = -1, arrival = -1;
  sim.Schedule(sim::Nanos(350), [&] {
    fabric.Send(a, b, 512, [&] { plain_at = sim.Now(); });
  });
  sim.Run();
  const sim::TimePoint plain_ready = plain_at - sim::Nanos(350);
  // Second round, on idle links again: the folded frame from t0.
  const sim::TimePoint t0 = sim.Now();
  fabric.Send(a, b, 512, [&] { folded_at = sim.Now(); }, nullptr,
              Fold{.post = sim::Nanos(350),
                   .completion = sim::Nanos(200),
                   .arrival = &arrival});
  EXPECT_EQ(arrival, t0 + sim::Nanos(350) + plain_ready);
  sim.Run();
  EXPECT_EQ(folded_at, arrival + sim::Nanos(200));
  EXPECT_EQ(fabric.total_messages(), 2u);
}

TEST(FabricTest, FoldedDropFiresAtTheFoldedInstant) {
  Simulator sim;
  Fabric fabric(&sim, CostModel::EvalCluster40G());
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  fabric.SetHostUp(b, false);
  sim::TimePoint dropped_at = -1;
  fabric.Send(a, b, 64, [] {}, [&] { dropped_at = sim.Now(); },
              Fold{.post = sim::Nanos(350)});
  sim.Run();
  EXPECT_EQ(dropped_at, sim::Nanos(350));
}

TEST(FabricTest, FoldedCompletionDeliversIfAliveWhenTheFrameArrived) {
  // Delivery follows the destination's incarnation at arrival, not at the
  // end of the folded completion: a crash during the completion still
  // delivers (the answer was in), a crash before the arrival purges.
  for (const bool crash_after_arrival : {true, false}) {
    Simulator sim;
    Fabric fabric(&sim, CostModel::EvalCluster40G());
    HostId a = fabric.AddHost("a");
    HostId b = fabric.AddHost("b");
    sim::TimePoint arrival = -1;
    int delivered = 0;
    fabric.Send(a, b, 64, [&] { delivered++; }, nullptr,
                Fold{.completion = Micros(1), .arrival = &arrival});
    const sim::TimePoint crash =
        crash_after_arrival ? arrival + sim::Nanos(500) : arrival - 1;
    sim.ScheduleAt(crash, [&] {
      fabric.SetHostUp(b, false);
      fabric.SetHostUp(b, true);
    });
    sim.Run();
    EXPECT_EQ(delivered, crash_after_arrival ? 1 : 0);
    EXPECT_EQ(fabric.purged_messages(), crash_after_arrival ? 0u : 1u);
    EXPECT_EQ(fabric.AliveAt(b, 0, arrival), crash_after_arrival);
  }
}

TEST(FabricTest, UnpostedSendersAreRegisteredPerHost) {
  Simulator sim;
  Fabric fabric(&sim, CostModel::EvalCluster40G());
  HostId a = fabric.AddHost("a");
  HostId b = fabric.AddHost("b");
  EXPECT_FALSE(fabric.HasUnpostedSender(a));
  fabric.AddUnpostedSender(b);
  EXPECT_FALSE(fabric.HasUnpostedSender(a));
  EXPECT_TRUE(fabric.HasUnpostedSender(b));
}

TEST(FabricTest, LoopbackSkipsWireButPaysLocalHop) {
  Simulator sim;
  Fabric fabric(&sim, CostModel::EvalCluster40G());
  HostId a = fabric.AddHost("a");
  int delivered = 0;
  fabric.Send(a, a, 1 << 20, [&] { delivered++; });
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sim.Now(), sim::Nanos(200));
}

}  // namespace
}  // namespace prism::net
