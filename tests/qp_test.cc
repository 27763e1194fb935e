// Tests for the two-sided SEND/RECV queue-pair layer and shared receive
// queues — the machinery §4.2 says PRISM's ALLOCATE reuses.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "src/rdma/batch.h"
#include "src/rdma/qp.h"
#include "src/rdma/service.h"
#include "src/rdma/verbs.h"
#include "src/sim/task.h"

namespace prism::rdma {
namespace {

using sim::Task;

class QpTest : public ::testing::Test {
 protected:
  QpTest()
      : fabric_(&sim_, net::CostModel::EvalCluster40G()),
        server_host_(fabric_.AddHost("server")),
        client_host_(fabric_.AddHost("client")),
        server_mem_(1 << 18),
        client_mem_(1 << 18),
        server_rq_(&server_mem_),
        client_rq_(&client_mem_),
        server_qp_(&fabric_, server_host_, 1, &server_rq_),
        client_qp_(&fabric_, client_host_, 2, &client_rq_) {
    server_qp_.Connect(&client_qp_);
    client_qp_.Connect(&server_qp_);
    server_buf_base_ = *server_mem_.Carve(4096);
    client_buf_base_ = *client_mem_.Carve(4096);
  }

  void PostServerBuffers(int n, uint64_t capacity = 256) {
    for (int i = 0; i < n; ++i) {
      server_rq_.PostRecv(server_buf_base_ + static_cast<uint64_t>(i) * 256,
                          capacity);
    }
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  net::HostId server_host_;
  net::HostId client_host_;
  AddressSpace server_mem_;
  AddressSpace client_mem_;
  ReceiveQueue server_rq_;
  ReceiveQueue client_rq_;
  QueuePair server_qp_;
  QueuePair client_qp_;
  Addr server_buf_base_ = 0;
  Addr client_buf_base_ = 0;
};

TEST_F(QpTest, SendLandsInPostedBuffer) {
  PostServerBuffers(1);
  sim::Spawn([&]() -> Task<void> {
    Status s = co_await client_qp_.Send(BytesOfString("hello qp"));
    EXPECT_TRUE(s.ok());
  });
  sim::Spawn([&]() -> Task<void> {
    RecvCompletion c = co_await server_qp_.AwaitRecv();
    EXPECT_EQ(c.length, 8u);
    EXPECT_EQ(c.src_qp, 2u);
    EXPECT_EQ(StringOfBytes(server_mem_.Load(c.buffer, c.length)),
              "hello qp");
  });
  sim_.Run();
  EXPECT_EQ(server_rq_.posted(), 0u);
}

TEST_F(QpTest, MessagesArriveInOrder) {
  PostServerBuffers(5);
  sim::Spawn([&]() -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      Status s = co_await client_qp_.Send(BytesOfU64(100 + i));
      EXPECT_TRUE(s.ok());
    }
  });
  std::vector<uint64_t> received;
  sim::Spawn([&]() -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      RecvCompletion c = co_await server_qp_.AwaitRecv();
      received.push_back(server_mem_.LoadWord(c.buffer));
    }
  });
  sim_.Run();
  EXPECT_EQ(received, (std::vector<uint64_t>{100, 101, 102, 103, 104}));
}

TEST_F(QpTest, RnrRetryWaitsForPostedBuffer) {
  // No buffer posted at send time; one appears after 15 µs — within the
  // RNR retry budget, so the send eventually succeeds.
  sim::Spawn([&]() -> Task<void> {
    Status s = co_await client_qp_.Send(BytesOfString("late"));
    EXPECT_TRUE(s.ok());
  });
  sim_.Schedule(sim::Micros(15), [&] { PostServerBuffers(1); });
  bool received = false;
  sim::Spawn([&]() -> Task<void> {
    (void)co_await server_qp_.AwaitRecv();
    received = true;
  });
  sim_.Run();
  EXPECT_TRUE(received);
  EXPECT_GT(server_rq_.rnr_nacks(), 0u);
}

TEST_F(QpTest, RnrRetriesExhaust) {
  sim::Spawn([&]() -> Task<void> {
    Status s = co_await client_qp_.Send(BytesOfString("doomed"));
    EXPECT_EQ(s.code(), Code::kResourceExhausted);
  });
  sim_.Run();
  EXPECT_GE(server_rq_.rnr_nacks(), 5u);  // initial attempt + 4 retries
}

TEST_F(QpTest, OversizedMessageNacks) {
  PostServerBuffers(1, /*capacity=*/16);
  sim::Spawn([&]() -> Task<void> {
    Status s = co_await client_qp_.Send(Bytes(64, 1));
    EXPECT_EQ(s.code(), Code::kResourceExhausted);
  });
  sim_.Run();
}

TEST_F(QpTest, DownPeerIsUnavailable) {
  PostServerBuffers(1);
  fabric_.SetHostUp(server_host_, false);
  sim::Spawn([&]() -> Task<void> {
    Status s = co_await client_qp_.Send(BytesOfString("x"));
    EXPECT_EQ(s.code(), Code::kUnavailable);
  });
  sim_.Run();
}

TEST_F(QpTest, CrashMidSendTimesOutInsteadOfHanging) {
  // The receiver crashes and restarts while the SEND is on the wire: the
  // frame is purged with the old incarnation, so neither the delivery nor
  // the drop callback fires, and the fabric deadline must end the send.
  PostServerBuffers(1);
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    const sim::TimePoint start = sim_.Now();
    Status s = co_await client_qp_.Send(BytesOfString("lost"));
    EXPECT_EQ(s.code(), Code::kTimedOut);
    EXPECT_GE(sim_.Now() - start, net::Fabric::kOpTimeout);
    EXPECT_LT(sim_.Now() - start, net::Fabric::kOpTimeout + sim::Millis(1));
    checked = true;
  });
  // After the 350 ns client post, before the ~1 µs delivery.
  sim_.Schedule(sim::Nanos(500), [&] {
    fabric_.SetHostUp(server_host_, false);
    fabric_.SetHostUp(server_host_, true);
  });
  sim_.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(fabric_.purged_messages(), 1u);
  EXPECT_EQ(server_rq_.posted(), 1u);  // nothing landed
}

TEST_F(QpTest, PeerDownBeforeAckTimesOutInsteadOfHanging) {
  // The receiver lands the message, then goes down before its ack leaves:
  // the ack is dropped at the source with no drop callback, so only the
  // fabric deadline ends the send. The message itself did land.
  PostServerBuffers(1);
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    const sim::TimePoint start = sim_.Now();
    Status s = co_await client_qp_.Send(BytesOfString("unacked"));
    EXPECT_EQ(s.code(), Code::kTimedOut);
    EXPECT_GE(sim_.Now() - start, net::Fabric::kOpTimeout);
    EXPECT_LT(sim_.Now() - start, net::Fabric::kOpTimeout + sim::Millis(1));
    checked = true;
  });
  // Delivery consumes the posted buffer; the ack follows nic_process +
  // pcie_write (1 µs) later. Take the receiver down within 10 ns of the
  // delivery, inside that window.
  std::function<void()> watch = [&] {
    if (server_rq_.posted() == 0) {
      fabric_.SetHostUp(server_host_, false);
    } else {
      sim_.Schedule(sim::Nanos(10), watch);
    }
  };
  sim_.Schedule(0, watch);
  sim_.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(server_qp_.pending_completions(), 1u);
  EXPECT_EQ(fabric_.dropped_messages(), 1u);  // the ack
}

TEST(SrqTest, MultipleQpsShareOneReceiveQueue) {
  // Three client QPs target three server QPs all attached to ONE shared
  // receive queue — buffers are consumed from the common pool in arrival
  // order, which is exactly the structure ALLOCATE's free lists reuse.
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  AddressSpace server_mem(1 << 18);
  SharedReceiveQueue srq(&server_mem);
  Addr base = *server_mem.Carve(4096);
  for (int i = 0; i < 3; ++i) {
    srq.PostRecv(base + static_cast<uint64_t>(i) * 256, 256);
  }
  std::vector<std::unique_ptr<QueuePair>> server_qps;
  std::vector<std::unique_ptr<QueuePair>> client_qps;
  std::vector<std::unique_ptr<AddressSpace>> client_mems;
  std::vector<std::unique_ptr<ReceiveQueue>> client_rqs;
  for (int i = 0; i < 3; ++i) {
    net::HostId ch = fabric.AddHost("client" + std::to_string(i));
    client_mems.push_back(std::make_unique<AddressSpace>(1 << 16));
    client_rqs.push_back(
        std::make_unique<ReceiveQueue>(client_mems.back().get()));
    server_qps.push_back(std::make_unique<QueuePair>(
        &fabric, server_host, static_cast<uint32_t>(100 + i), &srq));
    client_qps.push_back(std::make_unique<QueuePair>(
        &fabric, ch, static_cast<uint32_t>(200 + i),
        client_rqs.back().get()));
    server_qps.back()->Connect(client_qps.back().get());
    client_qps.back()->Connect(server_qps.back().get());
  }
  int sent_ok = 0;
  for (int i = 0; i < 3; ++i) {
    sim::Spawn([&, i]() -> sim::Task<void> {
      Status s = co_await client_qps[static_cast<size_t>(i)]->Send(
          BytesOfU64(static_cast<uint64_t>(i)));
      EXPECT_TRUE(s.ok()) << i;
      sent_ok++;
    });
  }
  int received = 0;
  for (int i = 0; i < 3; ++i) {
    sim::Spawn([&, i]() -> sim::Task<void> {
      RecvCompletion c =
          co_await server_qps[static_cast<size_t>(i)]->AwaitRecv();
      EXPECT_EQ(server_mem.LoadWord(c.buffer), static_cast<uint64_t>(i));
      received++;
    });
  }
  sim.Run();
  EXPECT_EQ(sent_ok, 3);
  EXPECT_EQ(received, 3);
  EXPECT_EQ(srq.posted(), 0u);  // the shared pool drained across QPs
  // A fourth message from any connection now RNRs: shared exhaustion.
  sim::Spawn([&]() -> sim::Task<void> {
    Status s = co_await client_qps[0]->Send(BytesOfU64(9));
    EXPECT_EQ(s.code(), Code::kResourceExhausted);
  });
  sim.Run();
}

// ---------- Verb edge cases: boundary masks, zero-length ops, revocation ----

class VerbEdgeTest : public ::testing::Test {
 protected:
  VerbEdgeTest() : mem_(1 << 16) {
    region_ = *mem_.CarveAndRegister(64, kRemoteAll);
    mem_.StoreWord(region_.base, 0x1122334455667788ull);
  }

  AddressSpace mem_;
  MemoryRegion region_;
};

TEST_F(VerbEdgeTest, MaskedCasAllOnesMasksBehavesAsPlainCas) {
  const Bytes ones(8, 0xff);
  // Mismatched compare: no swap, old value returned — same as CompareSwap.
  auto miss = Verbs::MaskedCompareSwap(mem_, region_.rkey, region_.base,
                                       BytesOfU64(0xdead), BytesOfU64(0xbeef),
                                       ones, ones, CasCompare::kEqual);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->swapped);
  EXPECT_EQ(LoadU64(miss->old_value.data()), 0x1122334455667788ull);
  EXPECT_EQ(mem_.LoadWord(region_.base), 0x1122334455667788ull);
  // Matching compare: every byte swaps, exactly like the 8-byte atomic.
  auto hit = Verbs::MaskedCompareSwap(
      mem_, region_.rkey, region_.base, BytesOfU64(0x1122334455667788ull),
      BytesOfU64(0xbeef), ones, ones, CasCompare::kEqual);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->swapped);
  EXPECT_EQ(mem_.LoadWord(region_.base), 0xbeefull);
}

TEST_F(VerbEdgeTest, MaskedCasAllZeroCmpMaskAlwaysMatchesOnEqual) {
  // cmp_mask = 0 compares 0 == 0: an unconditional swap of the masked bytes.
  const Bytes zeros(8, 0x00), ones(8, 0xff);
  auto r = Verbs::MaskedCompareSwap(mem_, region_.rkey, region_.base,
                                    BytesOfU64(0x9999), BytesOfU64(0x4242),
                                    zeros, ones, CasCompare::kEqual);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->swapped);
  EXPECT_EQ(mem_.LoadWord(region_.base), 0x4242ull);
}

TEST_F(VerbEdgeTest, MaskedCasAllZeroCmpMaskNeverMatchesStrictCompare) {
  // Under kGreater/kLess a zero cmp_mask makes both operands equal, and the
  // strict comparison must fail — the swap never fires.
  const Bytes zeros(8, 0x00), ones(8, 0xff);
  for (CasCompare mode : {CasCompare::kGreater, CasCompare::kLess}) {
    auto r = Verbs::MaskedCompareSwap(mem_, region_.rkey, region_.base,
                                      BytesOfU64(0x7777), BytesOfU64(0x4242),
                                      zeros, ones, mode);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->swapped);
  }
  EXPECT_EQ(mem_.LoadWord(region_.base), 0x1122334455667788ull);
}

TEST_F(VerbEdgeTest, MaskedCasAllZeroSwapMaskSwapsNothing) {
  // The compare succeeds (reports swapped) but a zero swap_mask preserves
  // every target byte: a pure masked-read-with-predicate.
  const Bytes zeros(8, 0x00), ones(8, 0xff);
  auto r = Verbs::MaskedCompareSwap(
      mem_, region_.rkey, region_.base, BytesOfU64(0x1122334455667788ull),
      BytesOfU64(0xffffffffffffffffull), ones, zeros, CasCompare::kEqual);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->swapped);
  EXPECT_EQ(mem_.LoadWord(region_.base), 0x1122334455667788ull);
}

TEST_F(VerbEdgeTest, ZeroLengthReadAndWrite) {
  // len = 0 is legal anywhere inside the region, including one past the
  // last byte (the [base, base+length] fencepost).
  auto r = Verbs::Read(mem_, region_.rkey, region_.base + region_.length, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_TRUE(
      Verbs::Write(mem_, region_.rkey, region_.base + region_.length, Bytes())
          .ok());
  EXPECT_EQ(mem_.LoadWord(region_.base), 0x1122334455667788ull);
  // Validation still applies: a zero-length op with a bogus rkey NACKs, and
  // one past the region end is out of range even for zero bytes.
  EXPECT_EQ(Verbs::Read(mem_, region_.rkey + 99, region_.base, 0).code(),
            Code::kPermissionDenied);
  EXPECT_EQ(
      Verbs::Read(mem_, region_.rkey, region_.base + region_.length + 1, 0)
          .code(),
      Code::kOutOfRange);
}

TEST_F(VerbEdgeTest, DeregisterInvalidatesRkey) {
  EXPECT_TRUE(mem_.Deregister(region_.rkey).ok());
  EXPECT_EQ(Verbs::Read(mem_, region_.rkey, region_.base, 8).code(),
            Code::kPermissionDenied);
  // Double free and never-minted rkeys are kNotFound.
  EXPECT_EQ(mem_.Deregister(region_.rkey).code(), Code::kNotFound);
  EXPECT_EQ(mem_.Deregister(0xdead).code(), Code::kNotFound);
}

// In-flight revocation: validation happens at the target on delivery, so an
// rkey revoked after the client posts but before the request reaches server
// memory NACKs with PermissionDenied — the same wire behaviour as a remote
// access after ibv_dereg_mr.
class RevokeInFlightTest : public ::testing::Test {
 protected:
  RevokeInFlightTest()
      : fabric_(&sim_, net::CostModel::EvalCluster40G()),
        server_(fabric_.AddHost("server")),
        client_host_(fabric_.AddHost("client")),
        mem_(1 << 18),
        service_(&fabric_, server_, Backend::kHardwareNic, &mem_),
        client_(&fabric_, client_host_) {
    region_ = *mem_.CarveAndRegister(4096, kRemoteAll);
    mem_.Store(region_.base, Bytes(64, 0x5a));
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  net::HostId server_;
  net::HostId client_host_;
  AddressSpace mem_;
  RdmaService service_;
  RdmaClient client_;
  MemoryRegion region_;
};

TEST_F(RevokeInFlightTest, ReadNacksWhenRkeyRevokedMidFlight) {
  sim::TimePoint nack_at = 0;
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client_.Read(&service_, region_.rkey, region_.base, 64);
    EXPECT_EQ(r.code(), Code::kPermissionDenied);
    nack_at = sim_.Now();
  });
  // One-sided hardware reads complete in ~2.5 µs; revoking at 500 ns lands
  // after the post but before server-side validation.
  sim_.Schedule(sim::Nanos(500),
                [&] { EXPECT_TRUE(mem_.Deregister(region_.rkey).ok()); });
  sim_.Run();
  EXPECT_GT(nack_at, sim::Nanos(500));
  // The NACK is a real response, not a client-side timeout.
  EXPECT_LT(nack_at, RdmaClient::kOpTimeout);
  EXPECT_EQ(service_.ops_executed(), 1u);  // the op reached the server path
}

TEST_F(RevokeInFlightTest, WriteNacksAndLeavesMemoryUntouched) {
  const Bytes before = mem_.Load(region_.base, 64);
  sim::Spawn([&]() -> Task<void> {
    Status s = co_await client_.Write(&service_, region_.rkey, region_.base,
                                      Bytes(64, 0xee));
    EXPECT_EQ(s.code(), Code::kPermissionDenied);
  });
  sim_.Schedule(sim::Nanos(500),
                [&] { EXPECT_TRUE(mem_.Deregister(region_.rkey).ok()); });
  sim_.Run();
  EXPECT_EQ(mem_.Load(region_.base, 64), before);
}

TEST_F(RevokeInFlightTest, RevokeAfterDeliveryDoesNotAffectCompletedOp) {
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client_.Read(&service_, region_.rkey, region_.base, 64);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 64u);
    // Revoke after completion: the returned data stays valid, only new ops
    // are rejected.
    EXPECT_TRUE(mem_.Deregister(region_.rkey).ok());
    auto again =
        co_await client_.Read(&service_, region_.rkey, region_.base, 64);
    EXPECT_EQ(again.code(), Code::kPermissionDenied);
  });
  sim_.Run();
}

// The consensus failure detector (src/consensus) hinges on this exact race:
// a deposed leader's CAS already in flight when the replica revokes its
// rkey must lose — NACK, memory untouched.
TEST_F(RevokeInFlightTest, CasNacksWhenRkeyRevokedMidFlightAndMemoryWins) {
  mem_.StoreWord(region_.base, 0);
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client_.CompareSwap(&service_, region_.rkey,
                                          region_.base, 0, 0xbadc0de);
    EXPECT_EQ(r.code(), Code::kPermissionDenied);
  });
  sim_.Schedule(sim::Nanos(500),
                [&] { EXPECT_TRUE(mem_.Deregister(region_.rkey).ok()); });
  sim_.Run();
  // The NACK won: the word still holds its pre-CAS value.
  EXPECT_EQ(mem_.LoadWord(region_.base), 0u);
}

// The consensus epoch bump: Deregister + Register over the same range is a
// leader change. The old reign's rkey NACKs forever; the fresh rkey (the
// new grant) works immediately over the same memory.
TEST_F(RevokeInFlightTest, RegrantAfterEpochBumpSwapsWhichRkeyWorks) {
  const RKey old_rkey = region_.rkey;
  EXPECT_TRUE(mem_.Deregister(old_rkey).ok());
  auto fresh = mem_.Register(region_.base, region_.length, kRemoteAll);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_NE(fresh->rkey, old_rkey);
  Status old_status = OkStatus();
  Status new_status = Aborted("pending");
  sim::Spawn([&]() -> Task<void> {
    old_status = co_await client_.Write(&service_, old_rkey, region_.base,
                                        Bytes(8, 0x01));
    new_status = co_await client_.Write(&service_, fresh->rkey, region_.base,
                                        Bytes(8, 0x02));
  });
  sim_.Run();
  EXPECT_EQ(old_status.code(), Code::kPermissionDenied);
  EXPECT_TRUE(new_status.ok()) << new_status;
  EXPECT_EQ(mem_.LoadWord(region_.base), 0x0202020202020202ull);
}

// Revocation racing a VerbBatcher flush: a CAS and its dependent WRITE
// share one doorbell; the rkey is revoked while the batch is on the wire.
// Both ops must NACK (the revoke wins over the whole batch), the doorbell
// amortization must be unchanged (2 WRs, 1 ring, 2 CQEs — NACKs are
// completions too), and in-batch ordering must hold: the WRITE never
// executes, so memory is untouched.
TEST_F(RevokeInFlightTest, RevokeDuringBatchFlushNacksBatchKeepsAmortization) {
  BatchOptions bopts;
  bopts.doorbell_batch = 2;
  bopts.cq_moderation = 2;
  VerbBatcher batcher(&sim_, &fabric_.cost(), bopts);
  client_.set_batcher(&batcher);
  mem_.StoreWord(region_.base, 0);
  const Bytes before = mem_.Load(region_.base, 64);

  Result<uint64_t> cas = Aborted("pending");
  Status write = OkStatus();
  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> Task<void> {
        cas = co_await client_.CompareSwap(&service_, region_.rkey,
                                           region_.base, 0, 7);
      },
      &tracker);
  sim::Spawn(
      [&]() -> Task<void> {
        co_await sim::SleepFor(&sim_, sim::Nanos(80));
        write = co_await client_.Write(&service_, region_.rkey,
                                       region_.base + 8, Bytes(8, 0xee));
      },
      &tracker);
  sim_.Schedule(sim::Nanos(500),
                [&] { EXPECT_TRUE(mem_.Deregister(region_.rkey).ok()); });
  sim_.Run();
  ASSERT_EQ(tracker.live(), 0u);

  EXPECT_EQ(cas.code(), Code::kPermissionDenied);
  EXPECT_EQ(write.code(), Code::kPermissionDenied);
  EXPECT_EQ(mem_.Load(region_.base, 64), before);
  // Same doorbell profile as the success path: the batch stayed a batch.
  EXPECT_EQ(batcher.wrs_posted(), 2u);
  EXPECT_EQ(batcher.doorbells_rung(), 1u);
  EXPECT_EQ(batcher.cqes_reaped(), 2u);
}

// ---- batched atomics: two clients race a CAS through VerbBatchers ----
//
// The sync schemes (src/sync) lean on two properties at once: CAS atomicity
// across hosts, and the QP's in-order execution of a doorbell batch — a CAS
// and the READ that depends on it may share one doorbell, but the batcher
// must never let the READ overtake the CAS.
TEST(BatchedCasTest, RacingCasLoserObservesWinnerAndBatchKeepsOrder) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  net::HostId h1 = fabric.AddHost("c1");
  net::HostId h2 = fabric.AddHost("c2");
  AddressSpace mem(1 << 16);
  RdmaService service(&fabric, server_host, Backend::kHardwareNic, &mem);
  MemoryRegion region = *mem.CarveAndRegister(64, kRemoteAll);
  const Addr word = region.base;

  BatchOptions bopts;
  bopts.doorbell_batch = 2;
  bopts.cq_moderation = 2;
  VerbBatcher b1(&sim, &fabric.cost(), bopts);
  VerbBatcher b2(&sim, &fabric.cost(), bopts);
  RdmaClient c1(&fabric, h1);
  RdmaClient c2(&fabric, h2);
  c1.set_batcher(&b1);
  c2.set_batcher(&b2);

  struct Outcome {
    Result<uint64_t> cas = Aborted("pending");
    Result<Bytes> read = Aborted("pending");
  };
  Outcome o1, o2;
  sim::TaskTracker tracker;
  auto race = [&](RdmaClient* c, uint64_t id, Outcome* out) {
    // The CAS and its dependent READ are posted back-to-back with no
    // completion fence: they ride one doorbell, and only the QP's in-order
    // execution makes the READ observe the post-CAS word.
    sim::Spawn(
        [&sim, &service, &region, word, c, id, out]() -> Task<void> {
          out->cas =
              co_await c->CompareSwap(&service, region.rkey, word, 0, id);
        },
        &tracker);
    sim::Spawn(
        [&sim, &service, &region, word, c, out]() -> Task<void> {
          co_await sim::SleepFor(&sim, sim::Nanos(80));
          out->read = co_await c->Read(&service, region.rkey, word, 8);
        },
        &tracker);
  };
  race(&c1, 1, &o1);
  race(&c2, 2, &o2);
  sim.Run();
  ASSERT_EQ(tracker.live(), 0u);

  ASSERT_TRUE(o1.cas.ok()) << o1.cas.status();
  ASSERT_TRUE(o2.cas.ok()) << o2.cas.status();
  ASSERT_TRUE(o1.read.ok()) << o1.read.status();
  ASSERT_TRUE(o2.read.ok()) << o2.read.status();

  // Exactly one CAS matched the zero word; the loser's returned old value
  // IS the winner's freshly-swapped id (atomicity: no interleaving where
  // both see zero, none where the loser sees stale zero).
  const bool c1_won = (*o1.cas == 0);
  const bool c2_won = (*o2.cas == 0);
  EXPECT_NE(c1_won, c2_won);
  const uint64_t winner = c1_won ? 1u : 2u;
  EXPECT_EQ(c1_won ? *o2.cas : *o1.cas, winner);

  // Neither dependent READ overtook its CAS through the batcher: both
  // observe the winner's value, never the pre-CAS zero.
  EXPECT_EQ(LoadU64(o1.read->data()), winner);
  EXPECT_EQ(LoadU64(o2.read->data()), winner);

  // Doorbell amortization: each host posted two WRs on one doorbell ring,
  // and both completions were reaped.
  EXPECT_EQ(b1.wrs_posted(), 2u);
  EXPECT_EQ(b1.doorbells_rung(), 1u);
  EXPECT_EQ(b2.wrs_posted(), 2u);
  EXPECT_EQ(b2.doorbells_rung(), 1u);
  EXPECT_EQ(b1.cqes_reaped(), 2u);
  EXPECT_EQ(b2.cqes_reaped(), 2u);
}

}  // namespace
}  // namespace prism::rdma
