// The client side of one request/response exchange over the fabric.
//
// An RDMA verb, a PRISM chain and an RPC call all have the same lifecycle;
// only the server-side body and the request size differ. Endpoint is the
// one copy of that lifecycle, shared by rdma::RdmaClient, core::PrismClient
// and rpc::RpcClient:
//
//   Begin     opens the op's span, captures the current-op register (armed
//             by the caller with no suspension point in between — the
//             span-register discipline) and enters kBatchWait.
//   post      a flat doorbell (client_post) or the shared VerbBatcher.
//   Request   counts one message and its bytes_out, plus one CPU action
//             exactly when the responder enters kResponder, and sends.
//   serve     the server-side body, spawned at request delivery; it ends
//             with Respond, which sends the answer back.
//   complete  disarms the deadline, drains the CQ (flat completion or the
//             batcher), counts round_trips and bytes_in only if a response
//             arrived, and restores the current-op register.
//
// A dropped request (kUnavailable) or an expired deadline (kTimedOut) is
// recorded in the exchange's `error`, apart from the server's `answer`, and
// always wins: an answer that lands after the op failed is discarded.
//
// Every closure handed to Fabric::Send captures only (this, exchange), so
// it stays in the simulator's inline event storage; request arguments live
// in the exchange's `serve` closure. `serve` is a lambda coroutine that
// takes the exchange's shared_ptr by value, so the frame keeps the closure
// alive; it is never passed as a coroutine parameter (see sim/task.h).
#ifndef PRISM_SRC_RDMA_ENDPOINT_H_
#define PRISM_SRC_RDMA_ENDPOINT_H_

#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/obs/complexity.h"
#include "src/obs/timeline.h"
#include "src/rdma/batch.h"
#include "src/sim/deadline.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::rdma {

class Endpoint {
 public:
  net::HostId host() const { return self_; }

  // Protocol-complexity tally across every op issued by this client (see
  // src/obs/complexity.h for the counting rules).
  const obs::TransportTally& tally() const { return tally_; }

  // Routes this client's post/poll path through a shared per-host batcher
  // (doorbell batching + completion coalescing). Null (default) keeps the
  // flat unbatched cost: one doorbell ring and one CQ drain per op.
  void set_batcher(VerbBatcher* b) { batcher_ = b; }

 protected:
  Endpoint(net::Fabric* fabric, net::HostId self)
      : fabric_(fabric), self_(self) {}

  // The state of one exchange. R is what the op returns; Serve is the
  // server-side body, a lambda coroutine `(auto x) -> sim::Task<void>`.
  template <typename R, typename Serve>
  struct ExchangeState {
    ExchangeState(sim::Simulator* sim, net::HostId server, size_t req_bytes,
                  bool cpu, Serve serve)
        : done(sim),
          server(server),
          req_bytes(req_bytes),
          cpu(cpu),
          serve(std::move(serve)) {}

    void Fail(Status s) {
      if (!done.is_set()) {
        error = std::move(s);
        done.Set();
      }
    }

    sim::Event done;
    std::optional<R> answer;  // set by Respond
    Status error;             // drop or deadline; wins over any answer
    obs::SpanId span = 0;
    obs::OpTimeline* op = nullptr;  // phase timeline (null when untimed)
    net::HostId server;
    size_t req_bytes;
    size_t resp_bytes = 0;
    bool cpu;  // the server burns a core: counted and phased as responder
    bool responded = false;
    Serve serve;
    // Armed on the fabric's deadline queue while the op awaits its answer.
    sim::Deadline deadline{
        [](void* s) {
          static_cast<ExchangeState*>(s)->Fail(TimedOut("op deadline"));
        },
        this};
  };

  // Starts one exchange with `server`: `req_bytes` on the wire, `cpu` when
  // serving it burns a server core, `serve` run at request delivery. Lazy
  // like any Task: nothing happens until the result is awaited.
  template <typename R, typename Serve>
  sim::Task<R> Exchange(std::string_view span, std::string_view layer,
                        net::HostId server, size_t req_bytes, bool cpu,
                        Serve serve) {
    auto x = std::make_shared<ExchangeState<R, Serve>>(
        fabric_->simulator(), server, req_bytes, cpu, std::move(serve));
    return Run<R>(std::move(x), span, layer);
  }

  // Called by `serve` when the server is done: records the answer and
  // sends `resp_bytes` back to the client.
  template <typename X, typename A>
  void Respond(const std::shared_ptr<X>& x, A&& answer, size_t resp_bytes) {
    x->answer.emplace(std::forward<A>(answer));
    x->resp_bytes = resp_bytes;
    obs::SwitchOp(x->op, obs::Phase::kWire, fabric_->simulator()->Now());
    fabric_->obs().SetCurrentSpan(x->span);
    fabric_->obs().SetCurrentOp(x->op);
    fabric_->Send(x->server, self_, resp_bytes, [this, x] {
      // Response delivered: the client-side completion path (CQ poll or
      // coalesced drain) starts here.
      obs::SwitchOp(x->op, obs::Phase::kBatchWait,
                    fabric_->simulator()->Now());
      if (!x->done.is_set()) {
        x->responded = true;
        x->done.Set();
      }
    });
  }

  net::Fabric* fabric_;
  net::HostId self_;

 private:
  template <typename R, typename X>
  sim::Task<R> Run(std::shared_ptr<X> x, std::string_view span,
                   std::string_view layer) {
    Begin(*x, span, layer);
    if (batcher_ != nullptr) {
      co_await batcher_->Post(&tally_);
    } else {
      tally_.doorbells++;
      co_await sim::SleepFor(fabric_->simulator(), fabric_->cost().client_post);
    }
    Request(x);
    // Deadline guard: expires only if neither response nor drop arrived.
    fabric_->deadlines().Arm(&x->deadline);
    co_await x->done.Wait();
    x->deadline.Cancel();
    if (batcher_ != nullptr) {
      co_await batcher_->Complete(&tally_);
    } else {
      tally_.cq_polls++;
      co_await sim::SleepFor(fabric_->simulator(), fabric_->cost().completion);
    }
    if (x->responded) {
      tally_.round_trips++;
      tally_.bytes_in += x->resp_bytes;
    }
    obs::SwitchOp(x->op, obs::Phase::kApp, fabric_->simulator()->Now());
    // Restore the register before returning: the caller resumes
    // synchronously from here, so its next op captures the right timeline.
    fabric_->obs().SetCurrentOp(x->op);
    fabric_->obs().FinishSpan(x->span, fabric_->simulator()->Now());
    if (!x->error.ok()) co_return x->error;
    co_return std::move(*x->answer);
  }

  template <typename X>
  void Begin(X& x, std::string_view span, std::string_view layer) {
    obs::Hub& hub = fabric_->obs();
    const sim::TimePoint now = fabric_->simulator()->Now();
    x.span = hub.StartSpan(span, layer, self_, now);
    x.op = hub.current_op();
    if (x.op == nullptr) return;
    if (x.op->root_span() == 0 && x.span != 0 && hub.tracer() != nullptr) {
      x.op->set_root_span(hub.tracer()->RootOf(x.span));
    }
    x.op->Switch(obs::Phase::kBatchWait, now);
  }

  template <typename X>
  void Request(const std::shared_ptr<X>& x) {
    tally_.messages++;
    tally_.bytes_out += x->req_bytes;
    if (x->cpu) tally_.cpu_actions++;
    obs::SwitchOp(x->op, obs::Phase::kWire, fabric_->simulator()->Now());
    fabric_->obs().SetCurrentSpan(x->span);
    fabric_->obs().SetCurrentOp(x->op);
    fabric_->Send(
        self_, x->server, x->req_bytes,
        [this, x] {
          fabric_->obs().SetCurrentSpan(x->span);
          // CPU-involvement semantics: only server time that burns a core
          // is "responder"; a NIC-executed op stays on the wire.
          if (x->cpu) {
            obs::SwitchOp(x->op, obs::Phase::kResponder,
                          fabric_->simulator()->Now());
          }
          sim::Spawn(x->serve(x));
        },
        [x] { x->Fail(Unavailable("host down")); });
  }

  VerbBatcher* batcher_ = nullptr;
  obs::TransportTally tally_;
};

}  // namespace prism::rdma

#endif  // PRISM_SRC_RDMA_ENDPOINT_H_
