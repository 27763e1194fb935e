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
// On the flat (unbatched) path the client's two waits cost no events of
// their own: they are folded into the fabric hops next to them (net::Fold).
// The request leaves client_post after the Send, and the answer is
// delivered `completion` after it arrives and resumes the waiting coroutine
// directly. A client on a host with an unposted sender (a server, a reclaim
// client, a batched client) keeps its post sleep (see
// net::Fabric::AddUnpostedSender). Phase stamps land on the same
// instants either way; the fabric registers the folded ones ahead of time.
//
// A dropped request (kUnavailable) or an expired deadline (kTimedOut) is
// recorded in the exchange's `error`, apart from the server's `answer`, and
// always wins: an answer that lands after the op failed is discarded. An
// answer that has arrived wins over a deadline that expires while the
// client pays its completion.
//
// Every closure handed to Fabric::Send captures only (this, exchange), so
// it stays in the simulator's inline event storage; request arguments live
// in the exchange's `serve` closure. `serve` is a lambda coroutine that
// takes the exchange's handle (Ref) by value, so the frame keeps the closure
// alive; it is never passed as a coroutine parameter (see sim/task.h). The
// exchange itself comes from the thread's frame cache (sim/frame_cache.h)
// and is counted without atomics: it never leaves its simulation's thread.
#ifndef PRISM_SRC_RDMA_ENDPOINT_H_
#define PRISM_SRC_RDMA_ENDPOINT_H_

#include <coroutine>
#include <limits>
#include <new>
#include <optional>
#include <string_view>
#include <utility>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/obs/complexity.h"
#include "src/obs/timeline.h"
#include "src/rdma/batch.h"
#include "src/sim/deadline.h"
#include "src/sim/frame_cache.h"
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
  // flat unbatched cost: one doorbell ring and one CQ drain per op. Batched
  // requests leave at flush time, so the host stops folding posts for good.
  void set_batcher(VerbBatcher* b) {
    if (b != nullptr) fabric_->AddUnpostedSender(self_);
    batcher_ = b;
  }

 protected:
  Endpoint(net::Fabric* fabric, net::HostId self)
      : fabric_(fabric), self_(self) {}

  // A counted handle on an exchange: the client's coroutine, the serve
  // coroutine and every fabric closure in flight each hold one, and the
  // last to let go returns the block to the frame cache.
  template <typename X>
  class Ref {
   public:
    // Takes over the count of a freshly built exchange.
    explicit Ref(X* x) : x_(x) {}
    Ref(const Ref& other) : x_(other.x_) { ++x_->refs; }
    Ref(Ref&& other) noexcept : x_(std::exchange(other.x_, nullptr)) {}
    Ref& operator=(const Ref&) = delete;
    Ref& operator=(Ref&&) = delete;
    ~Ref() {
      if (x_ != nullptr && --x_->refs == 0) {
        x_->~X();
        sim::internal::FrameCache::Free(x_, sizeof(X));
      }
    }

    X& operator*() const { return *x_; }
    X* operator->() const { return x_; }
    X* get() const { return x_; }

   private:
    X* x_;
  };

  // The state of one exchange. R is what the op returns; Serve is the
  // server-side body, a lambda coroutine `(auto x) -> sim::Task<void>`.
  template <typename R, typename Serve>
  struct ExchangeState {
    ExchangeState(net::Fabric* fabric, net::HostId client, net::HostId server,
                  size_t req_bytes, bool cpu, Serve serve)
        : fabric(fabric),
          client(client),
          server(server),
          req_bytes(req_bytes),
          cpu(cpu),
          serve(std::move(serve)) {}

    // A drop or a deadline: records `s` unless the op already finished or
    // its answer has arrived (and will be delivered), and wakes the client
    // once it has paid its flat completion (zero on the batched path, which
    // drains after).
    void Fail(Status s) {
      sim::Simulator* const sim = fabric->simulator();
      if (finished) return;
      if (arrival <= sim->Now() &&
          fabric->AliveAt(client, client_epoch, arrival)) {
        return;
      }
      error = std::move(s);
      finished = true;
      sim->Resume(waiter, completion);
    }

    // Suspends the client until the exchange finishes.
    auto Wait() {
      struct Awaiter {
        ExchangeState* x;
        bool await_ready() const noexcept { return x->finished; }
        void await_suspend(std::coroutine_handle<> h) { x->waiter = h; }
        void await_resume() const noexcept {}
      };
      return Awaiter{this};
    }

    int refs = 1;  // see Ref
    net::Fabric* fabric;
    net::HostId client;
    uint32_t client_epoch = 0;  // the client's incarnation when answered
    std::coroutine_handle<> waiter;  // the client, while it waits
    bool finished = false;            // answered, dropped or timed out
    std::optional<R> answer;  // set by Respond
    Status error;             // drop or deadline; wins over any answer
    obs::SpanId span = 0;
    obs::OpTimeline* op = nullptr;  // phase timeline (null when untimed)
    net::HostId server;
    size_t req_bytes;
    size_t resp_bytes = 0;
    // The flat completion cost, folded into the answer's delivery; zero on
    // the batched path.
    sim::Duration completion = 0;
    // When the answer's last byte arrives, once the fabric has fixed it.
    sim::TimePoint arrival = std::numeric_limits<sim::TimePoint>::max();
    bool cpu;  // the server burns a core: counted and phased as responder
    bool responded = false;
    Serve serve;
    // Armed on a fabric deadline queue while the op awaits its answer.
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
    using X = ExchangeState<R, Serve>;
    Ref<X> x(new (sim::internal::FrameCache::Alloc(sizeof(X)))
                 X(fabric_, self_, server, req_bytes, cpu, std::move(serve)));
    return Run<R>(std::move(x), span, layer);
  }

  // Called by `serve` when the server is done: records the answer and
  // sends `resp_bytes` back to the client.
  template <typename X, typename A>
  void Respond(const Ref<X>& x, A&& answer, size_t resp_bytes) {
    x->answer.emplace(std::forward<A>(answer));
    x->resp_bytes = resp_bytes;
    x->client_epoch = fabric_->HostEpoch(self_);
    obs::SwitchOp(x->op, obs::Phase::kWire, fabric_->simulator()->Now());
    fabric_->obs().SetCurrentSpan(x->span);
    fabric_->obs().SetCurrentOp(x->op);
    fabric_->Send(
        x->server, self_, resp_bytes,
        [this, x] {
          // Flat path: the fabric stamped kBatchWait at arrival and the
          // completion is paid, so the client resumes right here. Batched
          // path: the coalesced CQ drain starts now.
          const bool flat = x->completion > 0;
          if (!flat) {
            obs::SwitchOp(x->op, obs::Phase::kBatchWait,
                          fabric_->simulator()->Now());
          }
          if (x->finished) return;
          x->finished = true;
          x->responded = true;
          if (flat) {
            x->waiter.resume();
          } else {
            fabric_->simulator()->Resume(x->waiter);
          }
        },
        nullptr,
        net::Fold{.completion = x->completion, .arrival = &x->arrival});
  }

  net::Fabric* fabric_;
  net::HostId self_;

 private:
  template <typename R, typename X>
  sim::Task<R> Run(Ref<X> x, std::string_view span,
                   std::string_view layer) {
    Begin(*x, span, layer);
    sim::Duration post = 0;  // folded into the request Send
    sim::DeadlineQueue* deadlines = &fabric_->deadlines();
    if (batcher_ != nullptr) {
      co_await batcher_->Post(&tally_);
    } else {
      tally_.doorbells++;
      x->completion = fabric_->cost().completion;
      if (fabric_->HasUnpostedSender(self_)) {
        co_await sim::SleepFor(fabric_->simulator(),
                               fabric_->cost().client_post);
      } else {
        post = fabric_->cost().client_post;
        deadlines = &fabric_->posted_deadlines();
      }
    }
    Request(x, post);
    // Deadline guard: expires only if neither response nor drop arrived.
    deadlines->Arm(&x->deadline, post);
    co_await x->Wait();
    x->deadline.Cancel();
    if (batcher_ != nullptr) {
      co_await batcher_->Complete(&tally_);
    } else {
      tally_.cq_polls++;
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

  // Sends the request `post` from now (zero unless the flat post is
  // folded in, in which case the fabric stamps kWire when it leaves).
  template <typename X>
  void Request(const Ref<X>& x, sim::Duration post) {
    tally_.messages++;
    tally_.bytes_out += x->req_bytes;
    if (x->cpu) tally_.cpu_actions++;
    if (post == 0) {
      obs::SwitchOp(x->op, obs::Phase::kWire, fabric_->simulator()->Now());
    }
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
        [x] { x->Fail(Unavailable("host down")); }, net::Fold{.post = post});
  }

  VerbBatcher* batcher_ = nullptr;
  obs::TransportTally tally_;
};

}  // namespace prism::rdma

#endif  // PRISM_SRC_RDMA_ENDPOINT_H_
