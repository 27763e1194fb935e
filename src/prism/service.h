// PRISM chains over the simulated fabric, under three deployment models.
//
//   kSoftware           — the paper's prototype (§4.1): chains are steered to
//                         a dedicated server core which executes one primitive
//                         per sw_primitive; ~2.5 µs over hardware RDMA.
//   kHardwareProjected  — the §4.3 performance model of a PRISM NIC ASIC:
//                         base NIC processing plus one PCIe round trip per
//                         host-memory access (pointer chases, data DMA),
//                         on-NIC SRAM accesses nearly free.
//   kBlueField          — off-path SmartNIC: slow ARM cores and ~3 µs
//                         internal-RDMA access to host memory per touch.
//
// Semantics are identical across deployments (the same core::Executor runs
// each op); only timing differs. Ops of a chain execute in separate simulator
// events, so concurrent chains interleave at op granularity — matching the
// paper's contract that the enhanced CAS is atomic but chains and indirect
// dereferences are not.
//
// The service also owns the ALLOCATE machinery: free-list queues, the §3.2
// drain rule (buffers are re-posted only when no chain is in flight), and the
// on-NIC scratch region clients use for redirect targets.
#ifndef PRISM_SRC_PRISM_SERVICE_H_
#define PRISM_SRC_PRISM_SERVICE_H_

#include <deque>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/prism/executor.h"
#include "src/prism/freelist.h"
#include "src/prism/op.h"
#include "src/prism/wire.h"
#include "src/rdma/endpoint.h"
#include "src/rdma/memory.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::core {

enum class Deployment {
  kSoftware,
  kHardwareProjected,
  kBlueField,
};

inline std::string_view DeploymentName(Deployment d) {
  switch (d) {
    case Deployment::kSoftware: return "PRISM SW";
    case Deployment::kHardwareProjected: return "PRISM HW (proj.)";
    case Deployment::kBlueField: return "PRISM BlueField";
  }
  return "?";
}

class PrismServer {
 public:
  static constexpr uint64_t kOnNicBytes = 256 * 1024;  // ConnectX-5 (§4.2)

  PrismServer(net::Fabric* fabric, net::HostId host, Deployment deployment,
              rdma::AddressSpace* mem)
      : fabric_(fabric),
        host_(host),
        deployment_(deployment),
        mem_(mem),
        executor_(mem, &freelists_),
        nic_pipeline_(fabric->simulator(), fabric->cost().nic_pipeline_units),
        bf_cores_(fabric->simulator(), fabric->cost().bf_cores) {
    obs::MetricsRegistry& m = fabric->obs().metrics();
    const std::string& hn = fabric->HostName(host);
    chains_metric_ = m.AddCounter("prism", "chains_executed", hn);
    ops_metric_ = m.AddCounter("prism", "ops_executed", hn);
    host_reads_metric_ = m.AddCounter("prism", "host_reads", hn);
    host_writes_metric_ = m.AddCounter("prism", "host_writes", hn);
    on_nic_metric_ = m.AddCounter("prism", "on_nic_accesses", hn);
    auto region = mem->CarveAndRegister(kOnNicBytes, rdma::kRemoteAll,
                                        rdma::kOnNic);
    PRISM_CHECK(region.ok()) << region.status();
    on_nic_region_ = *region;
    on_nic_next_ = on_nic_region_.base;
    fabric->AddUnpostedSender(host);
  }

  net::HostId host() const { return host_; }
  Deployment deployment() const { return deployment_; }
  rdma::AddressSpace& memory() { return *mem_; }
  FreeListRegistry& freelists() { return freelists_; }
  Executor& executor() { return executor_; }
  const rdma::MemoryRegion& on_nic_region() const { return on_nic_region_; }

  // Hands out per-connection scratch space from the 256 KB on-NIC region
  // (32 B per connection suffices for all three applications, §4.2).
  Result<rdma::Addr> AllocateScratch(uint64_t bytes) {
    const uint64_t aligned = (bytes + 7) & ~uint64_t{7};
    if (on_nic_next_ + aligned >
        on_nic_region_.base + on_nic_region_.length) {
      return ResourceExhausted("on-NIC scratch exhausted");
    }
    rdma::Addr addr = on_nic_next_;
    on_nic_next_ += aligned;
    return addr;
  }

  // ---- free-list posting with the §3.2 drain rule ----

  // Posts buffers to a free list. The paper's rule: "recycled buffers only
  // be added back to the free list when concurrent NIC operations are
  // complete" — i.e. a post behaves like the write side of a reader-writer
  // lock: it waits for the chains in flight *at post time* (which might
  // still hold a stale pointer to the buffer) to finish, not for the NIC to
  // go idle. Implemented as an epoch barrier: the post flushes once every
  // chain with an id below the barrier has completed.
  void PostBuffers(uint32_t queue, std::vector<rdma::Addr> buffers) {
    if (active_chains_.empty()) {
      for (rdma::Addr b : buffers) {
        PRISM_CHECK(freelists_.Post(queue, b).ok());
      }
    } else {
      pending_posts_.push_back(
          PendingPost{active_chains_.next_id(), queue, std::move(buffers)});
    }
  }

  int in_flight() const { return in_flight_; }
  uint64_t chains_executed() const { return chains_executed_; }
  uint64_t ops_executed() const { return ops_executed_; }
  size_t deferred_posts() const { return pending_posts_.size(); }

 private:
  friend class PrismClient;

  // Per-op server-side processing cost under the current deployment.
  sim::Duration OpCost(const Op& op) const {
    const net::CostModel& c = fabric_->cost();
    const AccessProfile p = executor_.Profile(op);
    switch (deployment_) {
      case Deployment::kSoftware:
        if (op.code == OpCode::kSearch) {
          // The dedicated core streams through the haystack.
          return c.sw_primitive +
                 c.sw_scan_per_kb * static_cast<int64_t>(op.len / 1024 + 1);
        }
        return c.sw_primitive;
      case Deployment::kHardwareProjected: {
        sim::Duration cost = c.hw_chain_step;
        cost += p.host_reads * c.pcie_read_rtt;
        cost += p.host_writes * c.pcie_write;
        cost += p.on_nic * c.on_nic_mem_access;
        if (p.atomic) cost += c.atomic_overhead;
        if (op.code == OpCode::kAllocate) cost += c.hw_freelist_pop;
        return cost;
      }
      case Deployment::kBlueField:
        return c.bf_primitive +
               (p.host_reads + p.host_writes) * c.bf_host_mem_rtt +
               p.on_nic * c.on_nic_mem_access +
               (op.code == OpCode::kSearch
                    ? 4 * c.sw_scan_per_kb *
                          static_cast<int64_t>(op.len / 1024 + 1)
                    : 0);
    }
    return 0;
  }

  // Executes the chain with deployment-specific timing; fills *results.
  // The caller keeps *chain and *results alive until this completes.
  sim::Task<void> RunChain(const Chain* chain, ChainResult* results) {
    // Entered synchronously from the request-delivery event; the register
    // still holds the issuing client's prism.execute span.
    const obs::SpanId span = fabric_->obs().StartSpan(
        "prism.chain", "prism", host_, fabric_->simulator()->Now());
    const net::CostModel& c = fabric_->cost();
    ++in_flight_;
    const uint64_t chain_id = active_chains_.Begin();
    switch (deployment_) {
      case Deployment::kSoftware: {
        co_await sim::SleepFor(fabric_->simulator(),
                               c.sw_ring_dma + c.sw_queue_delay);
        co_await fabric_->Cores(host_).Acquire();
        co_await sim::SleepFor(fabric_->simulator(), c.sw_dispatch);
        co_await ExecuteOps(chain, results);
        fabric_->Cores(host_).Release();
        co_await sim::SleepFor(fabric_->simulator(), c.sw_tx);
        break;
      }
      case Deployment::kHardwareProjected: {
        co_await nic_pipeline_.Acquire();
        co_await sim::SleepFor(fabric_->simulator(), c.nic_process);
        co_await ExecuteOps(chain, results);
        nic_pipeline_.Release();
        break;
      }
      case Deployment::kBlueField: {
        co_await sim::SleepFor(fabric_->simulator(), c.sw_ring_dma);
        co_await bf_cores_.Acquire();
        co_await sim::SleepFor(fabric_->simulator(), c.bf_dispatch);
        co_await ExecuteOps(chain, results);
        bf_cores_.Release();
        co_await sim::SleepFor(fabric_->simulator(), c.sw_tx);
        break;
      }
    }
    chains_executed_++;
    chains_metric_->Add();
    --in_flight_;
    active_chains_.End(chain_id);
    FlushPendingPosts();
    fabric_->obs().FinishSpan(span, fabric_->simulator()->Now());
  }

  sim::Task<void> ExecuteOps(const Chain* chain, ChainResult* results) {
    ChainContext ctx;
    for (const Op& op : *chain) {
      // Charge the op's cost first, then apply its effect in this event —
      // concurrent chains interleave between ops, never inside one.
      co_await sim::SleepFor(fabric_->simulator(), OpCost(op));
      results->push_back(executor_.ExecuteOne(op, ctx));
      ops_executed_++;
      ops_metric_->Add();
      const AccessProfile p = executor_.Profile(op);
      host_reads_metric_->Add(p.host_reads);
      host_writes_metric_->Add(p.host_writes);
      on_nic_metric_->Add(p.on_nic);
    }
  }

  void FlushPendingPosts() {
    const uint64_t min_active = active_chains_.oldest();
    while (!pending_posts_.empty() &&
           pending_posts_.front().barrier <= min_active) {
      for (rdma::Addr b : pending_posts_.front().buffers) {
        PRISM_CHECK(freelists_.Post(pending_posts_.front().queue, b).ok());
      }
      pending_posts_.pop_front();
    }
  }

  net::Fabric* fabric_;
  net::HostId host_;
  Deployment deployment_;
  rdma::AddressSpace* mem_;
  FreeListRegistry freelists_;
  Executor executor_;
  sim::ServiceQueue nic_pipeline_;
  sim::ServiceQueue bf_cores_;
  rdma::MemoryRegion on_nic_region_;
  rdma::Addr on_nic_next_ = 0;

  struct PendingPost {
    uint64_t barrier;  // flush once all chain ids < barrier completed
    uint32_t queue;
    std::vector<rdma::Addr> buffers;
  };

  obs::Counter* chains_metric_ = nullptr;
  obs::Counter* ops_metric_ = nullptr;
  obs::Counter* host_reads_metric_ = nullptr;
  obs::Counter* host_writes_metric_ = nullptr;
  obs::Counter* on_nic_metric_ = nullptr;

  // Chain ids are handed out in order and retired in any order; the drain
  // rule needs the oldest id still running. A ring of done flags over the
  // ids in flight answers that without a per-chain allocation.
  class ChainIds {
   public:
    uint64_t Begin() {
      if (next_ - oldest_ == done_.size()) Grow();
      done_[next_ & (done_.size() - 1)] = false;
      return next_++;
    }
    void End(uint64_t id) {
      done_[id & (done_.size() - 1)] = true;
      while (oldest_ != next_ && done_[oldest_ & (done_.size() - 1)]) {
        ++oldest_;
      }
    }
    bool empty() const { return oldest_ == next_; }
    // The oldest chain id still running, or next_id() when none is.
    uint64_t oldest() const { return oldest_; }
    uint64_t next_id() const { return next_; }

   private:
    // Doubles the ring, keeping every id at its slot modulo the new size.
    void Grow() {
      const size_t cap = done_.empty() ? 16 : done_.size() * 2;
      std::vector<bool> grown(cap);
      for (uint64_t id = oldest_; id != next_; ++id) {
        grown[id & (cap - 1)] = done_[id & (done_.size() - 1)];
      }
      done_ = std::move(grown);
    }

    std::vector<bool> done_;  // power-of-two ring indexed by chain id
    uint64_t oldest_ = 0;
    uint64_t next_ = 0;
  };

  int in_flight_ = 0;
  ChainIds active_chains_;
  uint64_t chains_executed_ = 0;
  uint64_t ops_executed_ = 0;
  std::deque<PendingPost> pending_posts_;
};

class PrismClient : public rdma::Endpoint {
 public:
  PrismClient(net::Fabric* fabric, net::HostId self)
      : Endpoint(fabric, self) {}

  // Executes a chain in one round trip. The ChainResult has one entry per op
  // (skipped conditional ops are marked executed=false).
  sim::Task<Result<ChainResult>> Execute(PrismServer* server, Chain chain) {
    const size_t req_bytes = EncodedChainSize(chain);
    // SW and BlueField chains burn a (server or SmartNIC) core; the
    // projected-hardware ASIC executes inside the NIC, CPU-free like a
    // one-sided verb.
    const bool cpu = server->deployment() != Deployment::kHardwareProjected;
    return Exchange<Result<ChainResult>>(
        "prism.execute", "prism", server->host(), req_bytes, cpu,
        [this, server, chain = std::move(chain)](auto x) -> sim::Task<void> {
          ChainResult results;
          co_await server->RunChain(&chain, &results);
          const size_t resp_bytes = ActualResponseSize(chain, results);
          Respond(x, std::move(results), resp_bytes);
        });
  }

  // Single-op conveniences.
  sim::Task<Result<OpResult>> ExecuteOne(PrismServer* server, Op op) {
    Chain chain;
    chain.push_back(std::move(op));
    auto results = co_await Execute(server, std::move(chain));
    if (!results.ok()) co_return results.status();
    PRISM_CHECK_EQ(results->size(), 1u);
    co_return std::move((*results)[0]);
  }
};

}  // namespace prism::core

#endif  // PRISM_SRC_PRISM_SERVICE_H_
