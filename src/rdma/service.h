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
// RdmaClient provides awaitable verbs; each op is a coroutine that charges
// client post/completion costs, ships the request across the fabric, and
// suspends until the response (or drop/timeout) arrives.
//
// Implementation note: ServerPath only *charges time*; the memory effect runs
// in the spawned server coroutine after the await. Closures are never passed
// as coroutine parameters (see the warning in sim/task.h).
#ifndef PRISM_SRC_RDMA_SERVICE_H_
#define PRISM_SRC_RDMA_SERVICE_H_

#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/rdma/batch.h"
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
            "rdma", "server_ops", fabric->HostName(host))) {}

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

class RdmaClient {
 public:
  RdmaClient(net::Fabric* fabric, net::HostId self)
      : fabric_(fabric), self_(self) {}

  net::HostId host() const { return self_; }

  // Protocol-complexity tally across every verb issued by this client
  // (see src/obs/complexity.h for the counting rules).
  const obs::TransportTally& tally() const { return tally_; }

  // Routes this client's post/poll path through a shared per-host batcher
  // (doorbell batching + completion coalescing). Null (default) keeps the
  // flat unbatched cost: one doorbell ring and one CQ drain per verb.
  void set_batcher(VerbBatcher* b) { batcher_ = b; }

  // Alias of the fabric-wide op deadline (net::Fabric::kOpTimeout).
  static constexpr sim::Duration kOpTimeout = net::Fabric::kOpTimeout;

  sim::Task<Result<Bytes>> Read(RdmaService* svc, RKey rkey, Addr addr,
                                uint64_t len) {
    auto state = std::make_shared<OpState<Bytes>>(fabric_->simulator(),
                                                  TimedOut("rdma read"));
    state->span = fabric_->obs().StartSpan("rdma.read", "rdma", self_,
                                           fabric_->simulator()->Now());
    BeginOp(state);
    co_await PostGate();
    PreSend(svc, state, 16);
    fabric_->Send(
        self_, svc->host(), /*payload=*/16,
        [this, svc, rkey, addr, len, state] {
          fabric_->obs().SetCurrentSpan(state->span);
          // CPU-involvement semantics: only the software stack's server
          // time is "responder"; the hardware NIC path stays on the wire.
          if (svc->backend() == Backend::kSoftwareStack) {
            obs::SwitchOp(state->op, obs::Phase::kResponder,
                          fabric_->simulator()->Now());
          }
          sim::Spawn([this, svc, rkey, addr, len, state]() -> sim::Task<void> {
            auto gate = svc->AtomicGate(self_);
            if (gate != nullptr) co_await gate->Wait();
            co_await svc->ServerPath(fabric_->cost().pcie_read_rtt);
            state->result = Verbs::Read(svc->memory(), rkey, addr, len);
            Respond(svc, state,
                    state->result.ok() ? state->result.value().size() : 0);
          });
        },
        [state] { state->Finish(Unavailable("host down")); });
    auto result = co_await Complete(state);
    co_return result;
  }

  sim::Task<Status> Write(RdmaService* svc, RKey rkey, Addr addr, Bytes data) {
    auto state = std::make_shared<OpState<Bytes>>(fabric_->simulator(),
                                                  TimedOut("rdma write"));
    state->span = fabric_->obs().StartSpan("rdma.write", "rdma", self_,
                                           fabric_->simulator()->Now());
    BeginOp(state);
    co_await PostGate();
    const size_t req_payload = 16 + data.size();
    auto payload = std::make_shared<Bytes>(std::move(data));
    PreSend(svc, state, req_payload);
    fabric_->Send(
        self_, svc->host(), req_payload,
        [this, svc, rkey, addr, payload = std::move(payload), state] {
          fabric_->obs().SetCurrentSpan(state->span);
          // CPU-involvement semantics: only the software stack's server
          // time is "responder"; the hardware NIC path stays on the wire.
          if (svc->backend() == Backend::kSoftwareStack) {
            obs::SwitchOp(state->op, obs::Phase::kResponder,
                          fabric_->simulator()->Now());
          }
          sim::Spawn([this, svc, rkey, addr, payload,
                      state]() -> sim::Task<void> {
            auto gate = svc->AtomicGate(self_);
            if (gate != nullptr) co_await gate->Wait();
            co_await svc->ServerPath(fabric_->cost().pcie_write);
            Status s = Verbs::Write(svc->memory(), rkey, addr, *payload);
            if (s.ok()) {
              state->result = Bytes{};
            } else {
              state->result = s;
            }
            Respond(svc, state, /*payload=*/0);
          });
        },
        [state] { state->Finish(Unavailable("host down")); });
    Result<Bytes> r = co_await Complete(state);
    co_return r.status();
  }

  sim::Task<Result<uint64_t>> CompareSwap(RdmaService* svc, RKey rkey,
                                          Addr addr, uint64_t compare,
                                          uint64_t swap) {
    auto state = std::make_shared<OpState<uint64_t>>(fabric_->simulator(),
                                                     TimedOut("rdma cas"));
    state->span = fabric_->obs().StartSpan("rdma.cas", "rdma", self_,
                                           fabric_->simulator()->Now());
    BeginOp(state);
    co_await PostGate();
    PreSend(svc, state, 32);
    fabric_->Send(
        self_, svc->host(), /*payload=*/32,
        [this, svc, rkey, addr, compare, swap, state] {
          fabric_->obs().SetCurrentSpan(state->span);
          // CPU-involvement semantics: only the software stack's server
          // time is "responder"; the hardware NIC path stays on the wire.
          if (svc->backend() == Backend::kSoftwareStack) {
            obs::SwitchOp(state->op, obs::Phase::kResponder,
                          fabric_->simulator()->Now());
          }
          sim::Spawn([this, svc, rkey, addr, compare, swap,
                      state]() -> sim::Task<void> {
            auto ticket = svc->AtomicBegin(self_);
            if (ticket.prev != nullptr) co_await ticket.prev->Wait();
            const net::CostModel& cost = fabric_->cost();
            co_await svc->ServerPath(cost.pcie_read_rtt +
                                     cost.atomic_overhead);
            state->result =
                Verbs::CompareSwap(svc->memory(), rkey, addr, compare, swap);
            ticket.mine->Set();
            Respond(svc, state, /*payload=*/8);
          });
        },
        [state] { state->Finish(Unavailable("host down")); });
    auto result = co_await Complete(state);
    co_return result;
  }

  sim::Task<Result<uint64_t>> FetchAdd(RdmaService* svc, RKey rkey, Addr addr,
                                       uint64_t delta) {
    auto state = std::make_shared<OpState<uint64_t>>(fabric_->simulator(),
                                                     TimedOut("rdma faa"));
    state->span = fabric_->obs().StartSpan("rdma.faa", "rdma", self_,
                                           fabric_->simulator()->Now());
    BeginOp(state);
    co_await PostGate();
    PreSend(svc, state, 24);
    fabric_->Send(
        self_, svc->host(), /*payload=*/24,
        [this, svc, rkey, addr, delta, state] {
          fabric_->obs().SetCurrentSpan(state->span);
          // CPU-involvement semantics: only the software stack's server
          // time is "responder"; the hardware NIC path stays on the wire.
          if (svc->backend() == Backend::kSoftwareStack) {
            obs::SwitchOp(state->op, obs::Phase::kResponder,
                          fabric_->simulator()->Now());
          }
          sim::Spawn(
              [this, svc, rkey, addr, delta, state]() -> sim::Task<void> {
                auto ticket = svc->AtomicBegin(self_);
                if (ticket.prev != nullptr) co_await ticket.prev->Wait();
                const net::CostModel& cost = fabric_->cost();
                co_await svc->ServerPath(cost.pcie_read_rtt +
                                         cost.atomic_overhead);
                state->result =
                    Verbs::FetchAdd(svc->memory(), rkey, addr, delta);
                ticket.mine->Set();
                Respond(svc, state, /*payload=*/8);
              });
        },
        [state] { state->Finish(Unavailable("host down")); });
    auto result = co_await Complete(state);
    co_return result;
  }

  // Mellanox-style masked CAS (standard hardware feature, §3.3): exposed on
  // the plain RDMA client because the ABD-LOCK baseline uses it for locks.
  sim::Task<Result<CasOutcome>> MaskedCompareSwap(
      RdmaService* svc, RKey rkey, Addr addr, Bytes data, Bytes cmp_mask,
      Bytes swap_mask, CasCompare mode = CasCompare::kEqual) {
    auto state = std::make_shared<OpState<CasOutcome>>(
        fabric_->simulator(), TimedOut("rdma masked cas"));
    state->span = fabric_->obs().StartSpan("rdma.masked_cas", "rdma", self_,
                                           fabric_->simulator()->Now());
    BeginOp(state);
    co_await PostGate();
    const size_t req_payload = 16 + 3 * data.size();
    const size_t width = data.size();
    struct Args {
      Bytes data, cmp_mask, swap_mask;
    };
    auto args = std::make_shared<Args>(Args{std::move(data),
                                            std::move(cmp_mask),
                                            std::move(swap_mask)});
    PreSend(svc, state, req_payload);
    fabric_->Send(
        self_, svc->host(), req_payload,
        [this, svc, rkey, addr, args = std::move(args), mode, state, width] {
          fabric_->obs().SetCurrentSpan(state->span);
          // CPU-involvement semantics: only the software stack's server
          // time is "responder"; the hardware NIC path stays on the wire.
          if (svc->backend() == Backend::kSoftwareStack) {
            obs::SwitchOp(state->op, obs::Phase::kResponder,
                          fabric_->simulator()->Now());
          }
          sim::Spawn([this, svc, rkey, addr, args, mode, state,
                      width]() -> sim::Task<void> {
            auto ticket = svc->AtomicBegin(self_);
            if (ticket.prev != nullptr) co_await ticket.prev->Wait();
            const net::CostModel& cost = fabric_->cost();
            co_await svc->ServerPath(cost.pcie_read_rtt +
                                     cost.atomic_overhead);
            state->result = Verbs::MaskedCompareSwap(
                svc->memory(), rkey, addr, args->data, args->cmp_mask,
                args->swap_mask, mode);
            ticket.mine->Set();
            Respond(svc, state, /*payload=*/width);
          });
        },
        [state] { state->Finish(Unavailable("host down")); });
    auto result = co_await Complete(state);
    co_return result;
  }

 private:
  template <typename T>
  struct OpState {
    OpState(sim::Simulator* sim, Status pending)
        : done(sim), result(std::move(pending)) {}
    sim::Event done;
    Result<T> result;
    obs::SpanId span = 0;
    obs::OpTimeline* op = nullptr;  // phase timeline (null when untimed)
    size_t resp_bytes = 0;
    bool responded = false;
    // Armed on the fabric's deadline queue while the op awaits its answer.
    sim::Deadline deadline{
        [](void* s) {
          static_cast<OpState*>(s)->Finish(TimedOut("op deadline"));
        },
        this};
    void Finish(Status s) {
      if (!done.is_set()) {
        result = std::move(s);
        done.Set();
      }
    }
  };

  // Verb-entry attribution: captures the current-op register (armed by the
  // caller with no suspension point in between — the span-register
  // discipline) and enters kBatchWait, which covers the post path up to the
  // wire handoff (flat client_post or the doorbell-batch flush wait).
  template <typename T>
  void BeginOp(const std::shared_ptr<OpState<T>>& state) {
    obs::Hub& hub = fabric_->obs();
    state->op = hub.current_op();
    if (state->op == nullptr) return;
    if (state->op->root_span() == 0 && state->span != 0 &&
        hub.tracer() != nullptr) {
      state->op->set_root_span(hub.tracer()->RootOf(state->span));
    }
    state->op->Switch(obs::Phase::kBatchWait, fabric_->simulator()->Now());
  }

  // Post-side gate every verb awaits before handing its WR to the fabric.
  // Unbatched: a flat client_post and one doorbell ring per WR. Batched: the
  // shared VerbBatcher delays the WR until its doorbell rings and charges
  // the amortized cost (one `doorbells` tick per ring, on the batch opener).
  sim::Task<void> PostGate() {
    if (batcher_ != nullptr) {
      co_await batcher_->Post(&tally_);
    } else {
      tally_.doorbells++;
      co_await sim::SleepFor(fabric_->simulator(), fabric_->cost().client_post);
    }
  }

  // Completion-side gate: flat CQ drain per op, or the batcher's moderated
  // drain (one `cq_polls` tick per drain).
  sim::Task<void> CompletionGate() {
    if (batcher_ != nullptr) {
      co_await batcher_->Complete(&tally_);
    } else {
      tally_.cq_polls++;
      co_await sim::SleepFor(fabric_->simulator(), fabric_->cost().completion);
    }
  }

  // Request-side accounting shared by every verb, applied just before the
  // fabric Send: one logical message out, a CPU action when the far side is
  // software RDMA, and the current-span register primed for the flight span.
  template <typename T>
  void PreSend(RdmaService* svc, const std::shared_ptr<OpState<T>>& state,
               size_t req_bytes) {
    tally_.messages++;
    tally_.bytes_out += req_bytes;
    if (svc->backend() == Backend::kSoftwareStack) tally_.cpu_actions++;
    obs::SwitchOp(state->op, obs::Phase::kWire, fabric_->simulator()->Now());
    fabric_->obs().SetCurrentSpan(state->span);
    fabric_->obs().SetCurrentOp(state->op);
  }

  template <typename T>
  void Respond(RdmaService* svc, std::shared_ptr<OpState<T>> state,
               size_t payload) {
    state->resp_bytes = payload;
    obs::SwitchOp(state->op, obs::Phase::kWire,
                  fabric_->simulator()->Now());
    fabric_->obs().SetCurrentSpan(state->span);
    fabric_->obs().SetCurrentOp(state->op);
    fabric_->Send(svc->host(), self_, payload, [this, state] {
      // Response delivered: the client-side completion path (CQ poll or
      // coalesced drain) starts here.
      obs::SwitchOp(state->op, obs::Phase::kBatchWait,
                    fabric_->simulator()->Now());
      if (!state->done.is_set()) {
        state->responded = true;
        state->done.Set();
      }
    });
  }

  template <typename T>
  sim::Task<Result<T>> Complete(std::shared_ptr<OpState<T>> state) {
    // Deadline guard: expires only if neither response nor drop arrived.
    fabric_->deadlines().Arm(&state->deadline);
    co_await state->done.Wait();
    state->deadline.Cancel();
    co_await CompletionGate();
    if (state->responded) {
      tally_.round_trips++;
      tally_.bytes_in += state->resp_bytes;
    }
    obs::SwitchOp(state->op, obs::Phase::kApp, fabric_->simulator()->Now());
    // Restore the register before returning: the caller resumes
    // synchronously from here, so its next verb captures the right op.
    fabric_->obs().SetCurrentOp(state->op);
    fabric_->obs().FinishSpan(state->span, fabric_->simulator()->Now());
    co_return std::move(state->result);
  }

  net::Fabric* fabric_;
  net::HostId self_;
  VerbBatcher* batcher_ = nullptr;
  obs::TransportTally tally_;
};

}  // namespace prism::rdma

#endif  // PRISM_SRC_RDMA_SERVICE_H_
