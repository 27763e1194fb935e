// Pins the host cost of one simulated round trip: the events the engine
// executes and the heap allocations made for one warmed RDMA READ, one 1-op
// PRISM chain, one RPC call and one Pilaf GET (DESIGN.md §5.1). The counts
// are exact, so an extra SleepFor or allocation on the client exchange path
// (src/rdma/endpoint.h) fails here.
//
// Each op runs alone to quiescence, so its events include the one deadline
// timer it leaves behind (src/sim/deadline.h). A READ, for example, is the
// request delivery, the NIC pipeline slot, the PCIe access, the answer's
// delivery (which resumes the client) and that timer; its one allocation
// is the answer's payload.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "src/common/bytes.h"
#include "src/kv/pilaf.h"
#include "src/net/fabric.h"
#include "src/prism/op.h"
#include "src/prism/service.h"
#include "src/rdma/memory.h"
#include "src/rdma/service.h"
#include "src/rpc/rpc.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace {
uint64_t g_new_calls = 0;
}  // namespace

// Counts every allocation in the process (operator new[] forwards here).
void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// Not inlined, so the compiler never sees free() on a pointer from new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace prism {
namespace {

using sim::Task;

struct Cost {
  uint64_t events = 0;
  uint64_t allocs = 0;
};

constexpr int kWarmupCalls = 3000;  // every wheel slot and size class used
constexpr int kMeasuredCalls = 50;

// Runs `start` (which spawns one op) to quiescence kWarmupCalls times, then
// kMeasuredCalls more times, and returns the cost of a measured call. Every
// measured call must cost the same.
template <typename Start>
Cost CostOfOneCall(sim::Simulator& sim, const Start& start) {
  for (int i = 0; i < kWarmupCalls; ++i) {
    start();
    sim.Run();
  }
  Cost first;
  for (int i = 0; i < kMeasuredCalls; ++i) {
    const uint64_t events0 = sim.executed_events();
    const uint64_t allocs0 = g_new_calls;
    start();
    sim.Run();
    const Cost c{sim.executed_events() - events0, g_new_calls - allocs0};
    if (i == 0) first = c;
    EXPECT_EQ(c.events, first.events) << "call " << i;
    EXPECT_EQ(c.allocs, first.allocs) << "call " << i;
  }
  return first;
}

// One server host (hardware RDMA, software PRISM, RPC) and one client host
// with nothing but clients on it, so the client's post and completion fold
// into the fabric hops.
class RoundTripCostTest : public ::testing::Test {
 protected:
  RoundTripCostTest()
      : fabric_(&sim_, net::CostModel::EvalCluster40G()),
        server_(fabric_.AddHost("server")),
        client_(fabric_.AddHost("client")),
        mem_(1 << 22),
        region_(*mem_.CarveAndRegister(1 << 20, rdma::kRemoteAll)),
        nic_(&fabric_, server_, rdma::Backend::kHardwareNic, &mem_),
        prism_(&fabric_, server_, core::Deployment::kSoftware, &mem_),
        rpc_(&fabric_, server_),
        rdma_client_(&fabric_, client_),
        prism_client_(&fabric_, client_),
        rpc_client_(&fabric_, client_) {
    mem_.StoreWord(slot(), data());
    rpc_.Register(1, [](const rpc::Message&) -> Task<rpc::MessagePtr> {
      co_return rpc::Message::Empty(64);
    });
  }

  rdma::Addr slot() const { return region_.base + 128; }
  rdma::Addr data() const { return region_.base + 4096; }

  sim::Simulator sim_;
  net::Fabric fabric_;
  net::HostId server_;
  net::HostId client_;
  rdma::AddressSpace mem_;
  rdma::MemoryRegion region_;
  rdma::RdmaService nic_;
  core::PrismServer prism_;
  rpc::RpcServer rpc_;
  rdma::RdmaClient rdma_client_;
  core::PrismClient prism_client_;
  rpc::RpcClient rpc_client_;
  int ok_ = 0;
};

TEST_F(RoundTripCostTest, ReadCostsFiveEventsAndOneAllocation) {
  const Cost c = CostOfOneCall(sim_, [this] {
    sim::Spawn([this]() -> Task<void> {
      auto r = co_await rdma_client_.Read(&nic_, region_.rkey, data(), 512);
      ok_ += r.ok();
    });
  });
  EXPECT_EQ(c.events, 5u);
  EXPECT_EQ(c.allocs, 1u);  // the 512 B answer
  EXPECT_EQ(ok_, kWarmupCalls + kMeasuredCalls);
}

TEST_F(RoundTripCostTest, OneOpChainCostsSevenEventsAndThreeAllocations) {
  const Cost c = CostOfOneCall(sim_, [this] {
    sim::Spawn([this]() -> Task<void> {
      core::Chain chain;
      chain.push_back(core::Op::IndirectRead(region_.rkey, slot(), 512));
      auto r = co_await prism_client_.Execute(&prism_, std::move(chain));
      ok_ += r.ok() && (*r)[0].executed && (*r)[0].status.ok();
    });
  });
  // Ring DMA + queueing, dispatch, the op, the reply hand-off, the answer's
  // delivery, the deadline timer, and the request delivery.
  EXPECT_EQ(c.events, 7u);
  // The chain, the result vector and the read payload.
  EXPECT_EQ(c.allocs, 3u);
  EXPECT_EQ(ok_, kWarmupCalls + kMeasuredCalls);
}

TEST_F(RoundTripCostTest, RpcCallCostsSixEventsAndTwoAllocations) {
  const Cost c = CostOfOneCall(sim_, [this] {
    sim::Spawn([this]() -> Task<void> {
      rpc::MessagePtr request = rpc::Message::Empty(64);
      auto r = co_await rpc_client_.Call(&rpc_, 1, request);
      ok_ += r.ok();
    });
  });
  EXPECT_EQ(c.events, 6u);
  EXPECT_EQ(c.allocs, 2u);  // the request and response messages
  EXPECT_EQ(ok_, kWarmupCalls + kMeasuredCalls);
}

TEST(PilafRoundTripCostTest, GetCostsElevenEventsAndFourAllocations) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  const net::HostId server_host = fabric.AddHost("server");
  const net::HostId client_host = fabric.AddHost("client");
  kv::PilafServer server(&fabric, server_host, kv::PilafOptions{});
  ASSERT_TRUE(server.LoadKey(BytesOfString("key"), Bytes(512, 7)).ok());
  kv::PilafClient client(&fabric, client_host, &server);
  const std::string key = "key";
  int ok = 0;
  const Cost c = CostOfOneCall(sim, [&] {
    sim::Spawn([&]() -> Task<void> {
      auto r = co_await client.Get(key);
      ok += r.ok() && r->size() == 512;
    });
  });
  // Two READs (four events each), a CRC check after each and one deadline
  // timer for both.
  EXPECT_EQ(c.events, 11u);
  // Each READ's answer, the key's bytes and the value handed back.
  EXPECT_EQ(c.allocs, 4u);
  EXPECT_EQ(ok, kWarmupCalls + kMeasuredCalls);
}

}  // namespace
}  // namespace prism
