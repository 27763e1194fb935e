// One-sided RDMA operations over the simulated fabric.
//
// RdmaService is the server-side entity that executes one-sided verbs
// against the host's AddressSpace. Two backends:
//
//   kHardwareNic    — the classic RDMA path: a NIC pipeline slot, PCIe DMA
//                     to host memory, no CPU. Calibrated to 2.5 µs per op on
//                     the direct-link testbed (paper Fig. 1).
//   kSoftwareStack  — a Snap-style software implementation: the op is DMA'd
//                     to a ring and executed by a dedicated server core,
//                     adding the paper's ~2.5 µs software premium. Used for
//                     the "(software RDMA)" baseline variants in Figs. 3–10.
//
// RdmaClient provides awaitable verbs. Each verb is one client exchange
// (src/rdma/endpoint.h) whose server-side body orders the op, charges
// ServerPath and then applies the memory effect.
#ifndef PRISM_SRC_RDMA_SERVICE_H_
#define PRISM_SRC_RDMA_SERVICE_H_

#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/rdma/endpoint.h"
#include "src/rdma/memory.h"
#include "src/rdma/verbs.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::rdma {

enum class Backend {
  kHardwareNic,
  kSoftwareStack,
};

class RdmaService {
 public:
  RdmaService(net::Fabric* fabric, net::HostId host, Backend backend,
              AddressSpace* mem)
      : fabric_(fabric),
        host_(host),
        backend_(backend),
        mem_(mem),
        nic_pipeline_(fabric->simulator(), fabric->cost().nic_pipeline_units),
        ops_metric_(fabric->obs().metrics().AddCounter(
            "rdma", "server_ops", fabric->HostName(host))) {
    fabric->AddUnpostedSender(host);
  }

  net::HostId host() const { return host_; }
  Backend backend() const { return backend_; }
  AddressSpace& memory() { return *mem_; }
  uint64_t ops_executed() const { return ops_executed_; }

  // Charges the server-side datapath cost for one op: NIC pipeline + PCIe on
  // the hardware backend, ring DMA + a dedicated core on the software one.
  // The caller performs the memory effect after this resumes.
  sim::Task<void> ServerPath(sim::Duration memory_cost) {
    // Entered synchronously from the request-delivery event; the register
    // still holds the issuing client's verb span.
    const obs::SpanId span = fabric_->obs().StartSpan(
        "rdma.server", "rdma", host_, fabric_->simulator()->Now());
    const net::CostModel& c = fabric_->cost();
    if (backend_ == Backend::kHardwareNic) {
      co_await nic_pipeline_.Use(c.nic_process);
      co_await sim::SleepFor(fabric_->simulator(), memory_cost);
    } else {
      co_await sim::SleepFor(fabric_->simulator(),
                             c.sw_ring_dma + c.sw_queue_delay);
      co_await fabric_->Cores(host_).Use(c.sw_dispatch + c.sw_primitive);
      co_await sim::SleepFor(fabric_->simulator(), c.sw_tx);
    }
    ops_executed_++;
    ops_metric_->Add();
    fabric_->obs().FinishSpan(span, fabric_->simulator()->Now());
  }

  // ---- Same-QP ordering around atomics ---------------------------------
  //
  // Real RNIC responders execute a QP's inbound requests in PSN order. The
  // model relaxes that so the multi-unit NIC pipeline can overlap cheap
  // READs with expensive ops from the same source — EXCEPT around atomics:
  // an atomic is an ordering point, and every request from the same source
  // host that *arrives after* an in-flight atomic begins execution only
  // once that atomic's memory effect has landed. Without this fence a
  // doorbell-batched [CAS; dependent READ] pair reorders at the responder
  // (the CAS pays atomic_overhead, the READ does not) and the READ observes
  // pre-CAS memory — an outcome no hardware QP can produce (qp_test pins
  // it). Plain READ/WRITE pairs still pipeline freely, so open-loop pools
  // that multiplex many workers over one client are not serialized.
  struct AtomicTicket {
    std::shared_ptr<sim::Event> prev;  // await before executing (may be null)
    std::shared_ptr<sim::Event> mine;  // Set() once the effect has landed
  };

  // Called by an atomic verb, synchronously at request delivery (so arrival
  // order matches PSN order): chains this atomic behind any in-flight one
  // from the same source and installs its own gate for later arrivals.
  AtomicTicket AtomicBegin(net::HostId src) {
    AtomicTicket t;
    std::shared_ptr<sim::Event>& tail = atomic_tail_[src];
    t.prev = tail;
    t.mine = std::make_shared<sim::Event>(fabric_->simulator());
    tail = t.mine;
    return t;
  }

  // Called by a non-atomic verb, synchronously at request delivery: the
  // gate of the most recent atomic from the same source, if any.
  std::shared_ptr<sim::Event> AtomicGate(net::HostId src) const {
    auto it = atomic_tail_.find(src);
    return it == atomic_tail_.end() ? nullptr : it->second;
  }

 private:
  net::Fabric* fabric_;
  net::HostId host_;
  Backend backend_;
  AddressSpace* mem_;
  sim::ServiceQueue nic_pipeline_;
  obs::Counter* ops_metric_;
  uint64_t ops_executed_ = 0;
  // Per-source tail of the atomic ordering chain (see AtomicBegin).
  std::unordered_map<net::HostId, std::shared_ptr<sim::Event>> atomic_tail_;
};

class RdmaClient : public Endpoint {
 public:
  RdmaClient(net::Fabric* fabric, net::HostId self) : Endpoint(fabric, self) {}

  sim::Task<Result<Bytes>> Read(RdmaService* svc, RKey rkey, Addr addr,
                                uint64_t len) {
    return Exchange<Result<Bytes>>(
        "rdma.read", "rdma", svc->host(), /*req_bytes=*/16, Cpu(svc),
        [this, svc, rkey, addr, len](auto x) -> sim::Task<void> {
          auto gate = svc->AtomicGate(self_);
          if (gate != nullptr) co_await gate->Wait();
          co_await svc->ServerPath(fabric_->cost().pcie_read_rtt);
          Result<Bytes> r = Verbs::Read(svc->memory(), rkey, addr, len);
          const size_t resp_bytes = r.ok() ? r->size() : 0;
          Respond(x, std::move(r), resp_bytes);
        });
  }

  sim::Task<Status> Write(RdmaService* svc, RKey rkey, Addr addr, Bytes data) {
    const size_t req_bytes = 16 + data.size();
    return Exchange<Status>(
        "rdma.write", "rdma", svc->host(), req_bytes, Cpu(svc),
        [this, svc, rkey, addr,
         data = std::move(data)](auto x) -> sim::Task<void> {
          auto gate = svc->AtomicGate(self_);
          if (gate != nullptr) co_await gate->Wait();
          co_await svc->ServerPath(fabric_->cost().pcie_write);
          Status s = Verbs::Write(svc->memory(), rkey, addr, data);
          Respond(x, std::move(s), /*resp_bytes=*/0);
        });
  }

  sim::Task<Result<uint64_t>> CompareSwap(RdmaService* svc, RKey rkey,
                                          Addr addr, uint64_t compare,
                                          uint64_t swap) {
    return Exchange<Result<uint64_t>>(
        "rdma.cas", "rdma", svc->host(), /*req_bytes=*/32, Cpu(svc),
        [this, svc, rkey, addr, compare, swap](auto x) -> sim::Task<void> {
          auto ticket = svc->AtomicBegin(self_);
          if (ticket.prev != nullptr) co_await ticket.prev->Wait();
          co_await svc->ServerPath(AtomicCost());
          Result<uint64_t> r =
              Verbs::CompareSwap(svc->memory(), rkey, addr, compare, swap);
          ticket.mine->Set();
          Respond(x, std::move(r), /*resp_bytes=*/8);
        });
  }

  sim::Task<Result<uint64_t>> FetchAdd(RdmaService* svc, RKey rkey, Addr addr,
                                       uint64_t delta) {
    return Exchange<Result<uint64_t>>(
        "rdma.faa", "rdma", svc->host(), /*req_bytes=*/24, Cpu(svc),
        [this, svc, rkey, addr, delta](auto x) -> sim::Task<void> {
          auto ticket = svc->AtomicBegin(self_);
          if (ticket.prev != nullptr) co_await ticket.prev->Wait();
          co_await svc->ServerPath(AtomicCost());
          Result<uint64_t> r =
              Verbs::FetchAdd(svc->memory(), rkey, addr, delta);
          ticket.mine->Set();
          Respond(x, std::move(r), /*resp_bytes=*/8);
        });
  }

  // Mellanox-style masked CAS (standard hardware feature, §3.3): exposed on
  // the plain RDMA client because the ABD-LOCK baseline uses it for locks.
  sim::Task<Result<CasOutcome>> MaskedCompareSwap(
      RdmaService* svc, RKey rkey, Addr addr, Bytes data, Bytes cmp_mask,
      Bytes swap_mask, CasCompare mode = CasCompare::kEqual) {
    const size_t req_bytes = 16 + 3 * data.size();
    return Exchange<Result<CasOutcome>>(
        "rdma.masked_cas", "rdma", svc->host(), req_bytes, Cpu(svc),
        [this, svc, rkey, addr, data = std::move(data),
         cmp_mask = std::move(cmp_mask), swap_mask = std::move(swap_mask),
         mode](auto x) -> sim::Task<void> {
          auto ticket = svc->AtomicBegin(self_);
          if (ticket.prev != nullptr) co_await ticket.prev->Wait();
          co_await svc->ServerPath(AtomicCost());
          Result<CasOutcome> r = Verbs::MaskedCompareSwap(
              svc->memory(), rkey, addr, data, cmp_mask, swap_mask, mode);
          ticket.mine->Set();
          Respond(x, std::move(r), /*resp_bytes=*/data.size());
        });
  }

 private:
  // Only the software stack's server time burns a CPU core; the hardware
  // NIC path stays on the wire.
  static bool Cpu(const RdmaService* svc) {
    return svc->backend() == Backend::kSoftwareStack;
  }

  sim::Duration AtomicCost() const {
    return fabric_->cost().pcie_read_rtt + fabric_->cost().atomic_overhead;
  }
};

}  // namespace prism::rdma

#endif  // PRISM_SRC_RDMA_SERVICE_H_
