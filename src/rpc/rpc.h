// Two-sided RPC over the simulated fabric, modeled on eRPC (§2.1).
//
// Calibration target (the paper's own measurement): a 512 B read RPC takes
// ≈5.6 µs on the 40 GbE cluster where a one-sided READ takes ≈3.2 µs. The
// server side consumes a dedicated core for dispatch + handler time — this
// CPU cost is exactly what the PRISM paper's applications avoid.
//
// Messages are type-erased: the fabric models timing from the declared wire
// size while the body travels as a shared_ptr (no serialization needed for
// correctness — applications may still serialize if they want, and the PRISM
// chain path does, see prism/wire.h).
#ifndef PRISM_SRC_RPC_RPC_H_
#define PRISM_SRC_RPC_RPC_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/rdma/batch.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::rpc {

using MethodId = uint32_t;

class Message;
// All RPC-facing signatures traffic in shared_ptr<Message>: GCC 12 double-
// destroys class-type temporaries in co_await full-expressions, and bare
// shared_ptr temporaries are the vetted-safe way to pass payloads through
// coroutine calls (see the warning in sim/task.h).
using MessagePtr = std::shared_ptr<Message>;

class Message {
 public:
  Message() = default;

  template <typename T>
  static MessagePtr Of(T value, size_t wire_bytes) {
    auto m = std::make_shared<Message>();
    m->body_ = std::make_shared<T>(std::move(value));
    m->wire_bytes_ = wire_bytes;
    return m;
  }

  static MessagePtr Empty(size_t wire_bytes = 0) {
    auto m = std::make_shared<Message>();
    m->wire_bytes_ = wire_bytes;
    return m;
  }

  template <typename T>
  const T& As() const {
    PRISM_CHECK(body_ != nullptr) << "empty rpc message body";
    return *std::static_pointer_cast<const T>(body_);
  }

  template <typename T>
  T& MutableAs() {
    PRISM_CHECK(body_ != nullptr);
    return *std::static_pointer_cast<T>(body_);
  }

  bool empty() const { return body_ == nullptr; }
  size_t wire_bytes() const { return wire_bytes_; }

 private:
  std::shared_ptr<void> body_;
  size_t wire_bytes_ = 0;
};

class RpcServer {
 public:
  // A handler is a coroutine taking the request and producing the response.
  // Handlers run on one of the server's dedicated cores; the constant
  // rpc_handler cost is charged on top of whatever the handler itself awaits.
  using Handler = std::function<sim::Task<MessagePtr>(const Message&)>;

  RpcServer(net::Fabric* fabric, net::HostId host)
      : fabric_(fabric),
        host_(host),
        served_metric_(fabric->obs().metrics().AddCounter(
            "rpc", "calls_served", fabric->HostName(host))) {}

  void Register(MethodId method, Handler handler) {
    PRISM_CHECK(handlers_.emplace(method, std::move(handler)).second)
        << "duplicate rpc method " << method;
  }

  net::HostId host() const { return host_; }
  uint64_t calls_served() const { return calls_served_; }

 private:
  friend class RpcClient;

  sim::Task<MessagePtr> Serve(MethodId method, MessagePtr request) {
    // Entered synchronously from the request-delivery event, so the hub's
    // current-span register still holds the caller's rpc.call span.
    const obs::SpanId span = fabric_->obs().StartSpan(
        "rpc.serve", "rpc", host_, fabric_->simulator()->Now());
    const net::CostModel& c = fabric_->cost();
    co_await sim::SleepFor(fabric_->simulator(), c.sw_ring_dma);
    sim::ServiceQueue& cores = fabric_->Cores(host_);
    co_await cores.Acquire();
    co_await sim::SleepFor(fabric_->simulator(),
                           c.rpc_dispatch + c.rpc_handler);
    auto it = handlers_.find(method);
    MessagePtr response;
    if (it != handlers_.end()) {
      response = co_await it->second(*request);
    } else {
      response = Message::Empty();
    }
    cores.Release();
    co_await sim::SleepFor(fabric_->simulator(), c.sw_tx);
    calls_served_++;
    served_metric_->Add();
    fabric_->obs().FinishSpan(span, fabric_->simulator()->Now());
    co_return response;
  }

  net::Fabric* fabric_;
  net::HostId host_;
  obs::Counter* served_metric_;
  std::unordered_map<MethodId, Handler> handlers_;
  uint64_t calls_served_ = 0;
};

class RpcClient {
 public:
  RpcClient(net::Fabric* fabric, net::HostId self)
      : fabric_(fabric), self_(self) {}

  net::HostId host() const { return self_; }

  // Alias of the fabric-wide op deadline (net::Fabric::kOpTimeout).
  static constexpr sim::Duration kRpcTimeout = net::Fabric::kOpTimeout;

  // Protocol-complexity tally across every Call issued by this client
  // (see src/obs/complexity.h for the counting rules).
  const obs::TransportTally& tally() const { return tally_; }

  // eRPC's send path is itself posted WRs + CQ polls, so the same verb-layer
  // batcher applies; null keeps one doorbell ring and one drain per call.
  void set_batcher(rdma::VerbBatcher* b) { batcher_ = b; }

  sim::Task<Result<MessagePtr>> Call(RpcServer* server, MethodId method,
                                     MessagePtr request_ptr) {
    auto state = std::make_shared<CallState>(fabric_->simulator());
    state->span = fabric_->obs().StartSpan("rpc.call", "rpc", self_,
                                           fabric_->simulator()->Now());
    // Capture the current-op register before the first suspension point
    // (the span-register discipline); the post path is kBatchWait.
    state->op = fabric_->obs().current_op();
    if (state->op != nullptr) {
      if (state->op->root_span() == 0 && state->span != 0 &&
          fabric_->obs().tracer() != nullptr) {
        state->op->set_root_span(fabric_->obs().tracer()->RootOf(state->span));
      }
      state->op->Switch(obs::Phase::kBatchWait, fabric_->simulator()->Now());
    }
    if (batcher_ != nullptr) {
      co_await batcher_->Post(&tally_);
    } else {
      tally_.doorbells++;
      co_await sim::SleepFor(fabric_->simulator(), fabric_->cost().client_post);
    }
    const size_t req_wire = request_ptr->wire_bytes();
    tally_.messages++;
    tally_.bytes_out += req_wire;
    tally_.cpu_actions++;  // every RPC consumes a server core
    obs::SwitchOp(state->op, obs::Phase::kWire, fabric_->simulator()->Now());
    fabric_->obs().SetCurrentSpan(state->span);
    fabric_->obs().SetCurrentOp(state->op);
    fabric_->Send(
        self_, server->host(), req_wire,
        [this, server, method, request_ptr = std::move(request_ptr), state] {
          fabric_->obs().SetCurrentSpan(state->span);
          // Every RPC burns a server core: delivery-to-response is
          // "responder" by definition.
          obs::SwitchOp(state->op, obs::Phase::kResponder,
                        fabric_->simulator()->Now());
          sim::Spawn([this, server, method, request_ptr,
                      state]() -> sim::Task<void> {
            MessagePtr response = co_await server->Serve(method, request_ptr);
            const size_t resp_wire = response ? response->wire_bytes() : 0;
            state->response = std::move(response);
            state->resp_bytes = resp_wire;
            obs::SwitchOp(state->op, obs::Phase::kWire,
                          fabric_->simulator()->Now());
            fabric_->obs().SetCurrentSpan(state->span);
            fabric_->obs().SetCurrentOp(state->op);
            fabric_->Send(server->host(), self_, resp_wire, [this, state] {
              obs::SwitchOp(state->op, obs::Phase::kBatchWait,
                            fabric_->simulator()->Now());
              if (!state->done.is_set()) {
                state->responded = true;
                state->done.Set();
              }
            });
          });
        },
        [state] { state->Finish(Unavailable("host down")); });
    // Deadline guard: expires only if neither response nor drop arrived.
    fabric_->deadlines().Arm(&state->deadline);
    co_await state->done.Wait();
    state->deadline.Cancel();
    if (batcher_ != nullptr) {
      co_await batcher_->Complete(&tally_);
    } else {
      tally_.cq_polls++;
      co_await sim::SleepFor(fabric_->simulator(), fabric_->cost().completion);
    }
    if (state->responded) {
      tally_.round_trips++;
      tally_.bytes_in += state->resp_bytes;
    }
    obs::SwitchOp(state->op, obs::Phase::kApp, fabric_->simulator()->Now());
    // Restore the register before returning: the caller resumes
    // synchronously from here, so its next call captures the right op.
    fabric_->obs().SetCurrentOp(state->op);
    fabric_->obs().FinishSpan(state->span, fabric_->simulator()->Now());
    if (!state->error.ok()) co_return state->error;
    co_return std::move(state->response);
  }

 private:
  struct CallState {
    explicit CallState(sim::Simulator* sim) : done(sim) {}
    sim::Event done;
    MessagePtr response;
    Status error;
    obs::SpanId span = 0;
    obs::OpTimeline* op = nullptr;  // phase timeline (null when untimed)
    size_t resp_bytes = 0;
    bool responded = false;
    // Armed on the fabric's deadline queue while the call awaits its answer.
    sim::Deadline deadline{
        [](void* s) {
          static_cast<CallState*>(s)->Finish(TimedOut("rpc deadline"));
        },
        this};
    void Finish(Status s) {
      if (!done.is_set()) {
        error = std::move(s);
        done.Set();
      }
    }
  };

  net::Fabric* fabric_;
  net::HostId self_;
  rdma::VerbBatcher* batcher_ = nullptr;
  obs::TransportTally tally_;
};

}  // namespace prism::rpc

#endif  // PRISM_SRC_RPC_RPC_H_
