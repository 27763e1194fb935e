// Tests for PRISM over the fabric: deployment timing (Fig. 1 shapes), chain
// round trips, the free-list drain rule, on-NIC scratch, reclamation, and
// wire encoding round-trips.
#include <gtest/gtest.h>

#include "src/net/fabric.h"
#include "src/prism/reclaim.h"
#include "src/prism/service.h"
#include "src/prism/wire.h"
#include "src/sim/task.h"

namespace prism::core {
namespace {

using rdma::kRemoteAll;
using sim::Micros;
using sim::Task;
using sim::ToMicros;

class PrismServiceTest : public ::testing::Test {
 protected:
  PrismServiceTest()
      : fabric_(&sim_, net::CostModel::Fig1DirectTestbed()),
        server_host_(fabric_.AddHost("server")),
        client_host_(fabric_.AddHost("client")),
        mem_(1 << 22),
        sw_(&fabric_, server_host_, Deployment::kSoftware, &mem_),
        hw_(&fabric_, server_host_, Deployment::kHardwareProjected, &mem_),
        bf_(&fabric_, server_host_, Deployment::kBlueField, &mem_),
        client_(&fabric_, client_host_) {
    region_ = *mem_.CarveAndRegister(256 * 1024, kRemoteAll);
    queue_ = sw_.freelists().CreateQueue(512);
    for (int i = 0; i < 64; ++i) {
      sw_.PostBuffers(queue_, {region_.base + 65536 +
                               static_cast<uint64_t>(i) * 512});
    }
  }

  // Measures completion latency of a single chain against `server`.
  double MeasureUs(PrismServer* server, Chain chain) {
    double us = -1;
    auto chain_ptr = std::make_shared<Chain>(std::move(chain));
    sim::Spawn([this, server, chain_ptr, &us]() -> Task<void> {
      sim::TimePoint start = sim_.Now();
      auto r = co_await client_.Execute(server, std::move(*chain_ptr));
      EXPECT_TRUE(r.ok());
      us = ToMicros(sim_.Now() - start);
    });
    sim_.Run();
    return us;
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  net::HostId server_host_;
  net::HostId client_host_;
  rdma::AddressSpace mem_;
  PrismServer sw_;
  PrismServer hw_;
  PrismServer bf_;
  PrismClient client_;
  rdma::MemoryRegion region_;
  uint32_t queue_;
};

TEST_F(PrismServiceTest, ChainRoundTripExecutesSemantics) {
  mem_.Store(region_.base, BytesOfString("hello"));
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client_.ExecuteOne(
        &sw_, Op::Read(region_.rkey, region_.base, 5));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(StringOfBytes(r->data), "hello");
    checked = true;
  });
  sim_.Run();
  EXPECT_TRUE(checked);
}

// Figure 1 shape: software ≈ RDMA + 2.5–2.8 µs; hardware projection ≈ RDMA
// plus PCIe round trips; BlueField slowest.
TEST_F(PrismServiceTest, Fig1DeploymentOrdering) {
  mem_.StoreWord(region_.base, region_.base + 1024);
  mem_.Store(region_.base + 1024, Bytes(512, 0x5a));
  Chain indirect{Op::IndirectRead(region_.rkey, region_.base, 512)};
  double sw = MeasureUs(&sw_, indirect);
  double hw = MeasureUs(&hw_, indirect);
  double bf = MeasureUs(&bf_, indirect);
  // Projected hardware: ~3.4 µs (2.5 + 0.9 PCIe pointer chase).
  EXPECT_NEAR(hw, 3.4, 0.6);
  // Software: ~5 µs.
  EXPECT_NEAR(sw, 5.2, 0.8);
  // BlueField: the slowest option (§4.3), ~11 µs.
  EXPECT_GT(bf, 9.0);
  EXPECT_LT(hw, sw);
  EXPECT_LT(sw, bf);
}

TEST_F(PrismServiceTest, ChainCostScalesWithLength) {
  Chain one{Op::Write(region_.rkey, region_.base, Bytes(64))};
  Chain three{Op::Write(region_.rkey, region_.base, Bytes(64)),
              Op::Write(region_.rkey, region_.base + 64, Bytes(64)),
              Op::Write(region_.rkey, region_.base + 128, Bytes(64))};
  double t1 = MeasureUs(&sw_, one);
  double t3 = MeasureUs(&sw_, three);
  // Two extra sw_primitive slots (0.3 µs each), but only one round trip —
  // chains are dispatch-dominated, which is why §6.2's 3-op PUT chain costs
  // about the same round trip as a 1-op GET.
  EXPECT_NEAR(t3 - t1, 0.6, 0.2);
}

TEST_F(PrismServiceTest, AllocateChainOverFabric) {
  bool done = false;
  sim::Spawn([&]() -> Task<void> {
    Chain chain;
    auto scratch = sw_.AllocateScratch(8);
    EXPECT_TRUE(scratch.ok());
    chain.push_back(Op::Allocate(region_.rkey, queue_,
                                 BytesOfString("payload1"))
                        .RedirectTo(*scratch));
    Op install;
    install.code = OpCode::kCas;
    install.rkey = region_.rkey;
    install.addr = region_.base + 128;
    install.data = BytesOfU64(*scratch);
    install.data_indirect = true;
    install.cmp_mask = Bytes(8, 0x00);
    install.swap_mask = Bytes(8, 0xff);
    install.conditional = true;
    chain.push_back(install);
    auto r = co_await client_.Execute(&sw_, std::move(chain));
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE((*r)[1].cas_swapped);
    rdma::Addr installed = mem_.LoadWord(region_.base + 128);
    EXPECT_EQ(StringOfBytes(mem_.Load(installed, 8)), "payload1");
    done = true;
  });
  sim_.Run();
  EXPECT_TRUE(done);
}

TEST_F(PrismServiceTest, PostDeferredWhileChainInFlight) {
  // Start a long chain, post a buffer mid-flight, verify the post is
  // deferred until the chain drains (§3.2 drain rule).
  Chain slow;
  for (int i = 0; i < 24; ++i) {
    slow.push_back(Op::Write(region_.rkey, region_.base, Bytes(8)));
  }
  size_t before = sw_.freelists().available(queue_);
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client_.Execute(&sw_, std::move(slow));
    EXPECT_TRUE(r.ok());
  });
  bool observed_deferred = false;
  // Post while the chain executes (it holds the server from ~3.5 µs for
  // 24 × 0.2 µs of per-op time).
  sim_.Schedule(Micros(5), [&] {
    if (sw_.in_flight() > 0) {
      sw_.PostBuffers(queue_, {region_.base + 200000});
      observed_deferred = sw_.deferred_posts() > 0;
      EXPECT_EQ(sw_.freelists().available(queue_), before);  // not yet posted
    }
  });
  sim_.Run();
  EXPECT_TRUE(observed_deferred);
  EXPECT_EQ(sw_.deferred_posts(), 0u);  // flushed at drain
  EXPECT_EQ(sw_.freelists().available(queue_), before + 1);
}

TEST_F(PrismServiceTest, PostWaitsForOlderChainsOnlyAcrossManyInFlight) {
  // 40 chains of mixed length are in flight (they retire out of order)
  // when a buffer is posted; one long chain starts after the post. The post
  // flushes once the 40 older chains are done, while the newer one still
  // runs.
  for (int i = 0; i < 40; ++i) {
    Chain chain;
    for (int k = 0; k <= i % 5; ++k) {
      chain.push_back(Op::Write(region_.rkey, region_.base, Bytes(8)));
    }
    auto c = std::make_shared<Chain>(std::move(chain));
    sim::Spawn([this, c]() -> Task<void> {
      auto r = co_await client_.Execute(&sw_, std::move(*c));
      EXPECT_TRUE(r.ok());
    });
  }
  const size_t before = sw_.freelists().available(queue_);
  uint64_t executed_at_flush = 0;
  int in_flight_at_flush = -1;
  sim_.Schedule(Micros(4), [&] {
    ASSERT_EQ(sw_.in_flight(), 40);
    sw_.PostBuffers(queue_, {region_.base + 200000});
    EXPECT_EQ(sw_.deferred_posts(), 1u);
    sim::Spawn([this]() -> Task<void> {
      Chain slow;
      for (int k = 0; k < 200; ++k) {
        slow.push_back(Op::Write(region_.rkey, region_.base, Bytes(8)));
      }
      auto r = co_await client_.Execute(&sw_, std::move(slow));
      EXPECT_TRUE(r.ok());
    });
  });
  for (int t = 5; t < 60; ++t) {
    sim_.Schedule(Micros(t), [&] {
      if (in_flight_at_flush < 0 && sw_.deferred_posts() == 0) {
        executed_at_flush = sw_.chains_executed();
        in_flight_at_flush = sw_.in_flight();
      }
    });
  }
  sim_.Run();
  EXPECT_GE(executed_at_flush, 40u);
  EXPECT_EQ(in_flight_at_flush, 1);  // the newer chain
  EXPECT_EQ(sw_.freelists().available(queue_), before + 1);
}

TEST_F(PrismServiceTest, ScratchAllocationsAreDisjointAndBounded) {
  auto a = sw_.AllocateScratch(32);
  auto b = sw_.AllocateScratch(32);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(*b, *a + 32);
  EXPECT_TRUE(mem_.IsOnNic(*a, 32));
  // 256 KB / 32 B = 8192 connections (the §4.2 sizing argument).
  int granted = 2;
  while (sw_.AllocateScratch(32).ok()) granted++;
  EXPECT_EQ(granted, 8192);
}

TEST_F(PrismServiceTest, ReclaimReturnsBuffersInBatches) {
  ReclaimClient reclaim(&fabric_, client_host_, &sw_, /*batch_size=*/4);
  size_t before = sw_.freelists().available(queue_);
  std::vector<rdma::Addr> freed;
  for (int i = 0; i < 4; ++i) {
    freed.push_back(region_.base + 100000 + static_cast<uint64_t>(i) * 512);
  }
  for (int i = 0; i < 3; ++i) reclaim.Free(queue_, freed[i]);
  EXPECT_EQ(reclaim.batches_sent(), 0u);  // below batch threshold
  reclaim.Free(queue_, freed[3]);
  EXPECT_EQ(reclaim.batches_sent(), 1u);
  sim_.Run();
  EXPECT_EQ(sw_.freelists().available(queue_), before + 4);
}

TEST_F(PrismServiceTest, DownServerYieldsUnavailable) {
  fabric_.SetHostUp(server_host_, false);
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client_.ExecuteOne(
        &sw_, Op::Read(region_.rkey, region_.base, 8));
    EXPECT_EQ(r.code(), Code::kUnavailable);
    checked = true;
  });
  sim_.Run();
  EXPECT_TRUE(checked);
}

TEST_F(PrismServiceTest, ServerCrashMidChainTimesOutInsteadOfHanging) {
  // The server crashes and restarts while the chain request is on the
  // wire: the frame is purged with the old incarnation, no response ever
  // arrives, and the chain must resolve kTimedOut at the fabric deadline
  // instead of hanging.
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    const sim::TimePoint start = sim_.Now();
    auto r = co_await client_.ExecuteOne(
        &sw_, Op::Read(region_.rkey, region_.base, 8));
    EXPECT_EQ(r.code(), Code::kTimedOut);
    EXPECT_GE(sim_.Now() - start, net::Fabric::kOpTimeout);
    EXPECT_LT(sim_.Now() - start, net::Fabric::kOpTimeout + sim::Millis(1));
    checked = true;
  });
  // After the 350 ns client post, before the ~0.6 µs delivery.
  sim_.Schedule(sim::Nanos(450), [&] {
    fabric_.SetHostUp(server_host_, false);
    fabric_.SetHostUp(server_host_, true);
  });
  sim_.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(fabric_.purged_messages(), 1u);
  EXPECT_EQ(sw_.chains_executed(), 0u);
}

TEST_F(PrismServiceTest, LateAnswerDoesNotOverwriteDeadlineError) {
  // The projected-hardware server finishes the chain 300 µs after the
  // deadline fires, while the client is still paying its 1 ms completion
  // cost. The deadline error wins: the chain fails and no round trip is
  // counted.
  fabric_.mutable_cost().completion = sim::Millis(1);
  fabric_.mutable_cost().nic_process =
      net::Fabric::kOpTimeout + sim::Micros(300);
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client_.ExecuteOne(
        &hw_, Op::Read(region_.rkey, region_.base, 8));
    EXPECT_EQ(r.code(), Code::kTimedOut);
    checked = true;
  });
  sim_.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(hw_.chains_executed(), 1u);
  EXPECT_EQ(client_.tally().round_trips, 0u);
  EXPECT_EQ(client_.tally().bytes_in, 0u);
}

TEST_F(PrismServiceTest, ConcurrentCasGtIsMonotonicAndAtomic) {
  // 32 clients concurrently install distinct versions with CAS_GT (the
  // PRISM-RS/TX pattern). Whatever the interleaving, the slot's value can
  // only increase, and the final value is the maximum version.
  mem_.StoreWord(region_.base, 0);
  int done = 0;
  uint64_t last_seen = 0;
  bool monotonic = true;
  for (int i = 0; i < 32; ++i) {
    sim::Spawn([&, i]() -> Task<void> {
      const uint64_t version = static_cast<uint64_t>(i) + 1;
      auto r = co_await client_.ExecuteOne(
          &sw_, Op::MaskedCas(region_.rkey, region_.base,
                              BytesOfU64(version), FieldMask(8, 0, 8),
                              FieldMask(8, 0, 8),
                              rdma::CasCompare::kGreater));
      EXPECT_TRUE(r.ok());
      // The CAS returns the previous value; observed values never regress
      // past an already-installed larger version.
      uint64_t prev = LoadU64(r->data.data());
      if (r->cas_swapped && prev >= version) monotonic = false;
      uint64_t now_val = mem_.LoadWord(region_.base);
      if (now_val < last_seen) monotonic = false;
      last_seen = now_val;
      done++;
    });
  }
  sim_.Run();
  EXPECT_EQ(done, 32);
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(mem_.LoadWord(region_.base), 32u);  // max version wins
}

// ---------- wire encoding ----------

TEST(PrismWireTest, FlagsRoundTrip) {
  Op op = Op::IndirectRead(5, 100, 64, /*bounded=*/true);
  op.conditional = true;
  op.redirect = true;
  op.redirect_addr = 4096;
  uint8_t flags = PackFlags(op);
  Op out;
  UnpackFlags(flags, out);
  EXPECT_TRUE(out.addr_indirect);
  EXPECT_TRUE(out.addr_bounded);
  EXPECT_TRUE(out.conditional);
  EXPECT_TRUE(out.redirect);
  EXPECT_FALSE(out.data_indirect);
}

TEST(PrismWireTest, OnlyFiveFlagBitsUsed) {
  Op op;
  op.addr_indirect = op.data_indirect = op.addr_bounded = true;
  op.conditional = op.redirect = true;
  EXPECT_LT(PackFlags(op), 1u << 5);  // §4.2: five new BTH bits suffice
}

TEST(PrismWireTest, ChainEncodeDecodeRoundTrip) {
  Chain chain;
  chain.push_back(Op::IndirectRead(7, 1000, 512, true));
  chain.push_back(Op::Allocate(7, 3, BytesOfString("data")).RedirectTo(64));
  chain.push_back(Op::MaskedCas(7, 2000, BytesOfU64Pair(1, 2),
                                FieldMask(16, 8, 8), FieldMask(16, 0, 16),
                                rdma::CasCompare::kGreater)
                      .Conditional());
  Bytes encoded = EncodeChain(chain);
  EXPECT_EQ(encoded.size(), EncodedChainSize(chain));
  auto decoded = DecodeChain(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  const Op& read = (*decoded)[0];
  EXPECT_EQ(read.code, OpCode::kRead);
  EXPECT_TRUE(read.addr_indirect);
  EXPECT_TRUE(read.addr_bounded);
  EXPECT_EQ(read.len, 512u);
  const Op& alloc = (*decoded)[1];
  EXPECT_EQ(alloc.code, OpCode::kAllocate);
  EXPECT_TRUE(alloc.redirect);
  EXPECT_EQ(alloc.redirect_addr, 64u);
  EXPECT_EQ(StringOfBytes(alloc.data), "data");
  const Op& cas = (*decoded)[2];
  EXPECT_EQ(cas.cas_mode, rdma::CasCompare::kGreater);
  EXPECT_TRUE(cas.conditional);
  EXPECT_EQ(cas.cmp_mask, FieldMask(16, 8, 8));
  EXPECT_EQ(cas.swap_mask, FieldMask(16, 0, 16));
}

TEST(PrismWireTest, TruncatedChainRejected) {
  Chain chain{Op::Read(1, 100, 8)};
  Bytes encoded = EncodeChain(chain);
  encoded.resize(encoded.size() - 3);
  EXPECT_FALSE(DecodeChain(encoded).ok());
}

TEST(PrismWireTest, TrailingBytesRejected) {
  Chain chain{Op::Read(1, 100, 8)};
  Bytes encoded = EncodeChain(chain);
  encoded.push_back(0);
  EXPECT_FALSE(DecodeChain(encoded).ok());
}

TEST(PrismWireTest, ResponseSizeAccountsRedirects) {
  Op plain = Op::Read(1, 0, 512);
  Op redirected = Op::Read(1, 0, 512).RedirectTo(64);
  EXPECT_GT(ResponseOpSize(plain), ResponseOpSize(redirected));
  EXPECT_EQ(ResponseOpSize(plain) - ResponseOpSize(redirected), 512u);
}

}  // namespace
}  // namespace prism::core
