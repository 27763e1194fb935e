// Synchronization primitives for simulated tasks.
//
// All wakeups are funneled through Simulator::Resume (never nested resumption)
// so waiters run in strict FIFO arrival order at the timestamp of the wakeup.
// Resume(h) is the simulator's zero-delay fast path — a pooled O(1) ring push
// with the coroutine handle stored inline, no heap allocation — so handoffs
// here (Event::Set fan-out, Channel push-to-consumer, Mutex/ServiceQueue
// ownership transfer) cost a few nanoseconds of real time per wakeup.
//
//  * Event        — one-shot manual event, any number of waiters.
//  * Quorum       — "k of n" join used by ABD and PRISM-TX: responders call
//                   Arrive(ok); waiters wake when k successes arrive, or when
//                   all n responses are in (quorum unreachable).
//  * Channel<T>   — unbounded MPSC-style queue with awaiting consumers; the
//                   request queue of every simulated service.
//  * Mutex        — FIFO coroutine mutex (used by server-side daemons).
//  * ServiceQueue — N identical servers with a FIFO queue; models CPU core
//                   pools and NIC processing pipelines. The queueing here is
//                   what bends the throughput–latency curves in Figs. 3–10.
#ifndef PRISM_SRC_SIM_SYNC_H_
#define PRISM_SRC_SIM_SYNC_H_

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace prism::sim {

// The first waiter is kept inline: most events (quorum joins, atomic
// ordering gates) have one, and they then cost no heap allocation.
class Event {
 public:
  explicit Event(Simulator* sim) : sim_(sim) {}

  void Set() {
    if (set_) return;
    set_ = true;
    if (first_) sim_->Resume(first_);
    for (auto h : more_) sim_->Resume(h);
    first_ = nullptr;
    more_.clear();
  }

  bool is_set() const { return set_; }

  auto Wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const noexcept { return event->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        if (!event->first_) {
          event->first_ = h;
        } else {
          event->more_.push_back(h);
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulator* sim_;
  bool set_ = false;
  std::coroutine_handle<> first_;
  std::vector<std::coroutine_handle<>> more_;  // waiters after the first
};

// k-of-n barrier with success/failure accounting.
class Quorum {
 public:
  Quorum(Simulator* sim, int need, int total)
      : done_(sim), need_(need), total_(total) {
    PRISM_CHECK_GT(need, 0);
    PRISM_CHECK_LE(need, total);
  }

  void Arrive(bool success = true) {
    PRISM_CHECK_LT(arrived_, total_);
    ++arrived_;
    if (success) ++successes_;
    // Wake as soon as the outcome is decided: quorum reached, or no longer
    // reachable even if every outstanding response succeeds.
    if (successes_ >= need_ ||
        successes_ + (total_ - arrived_) < need_) {
      done_.Set();
    }
  }

  // Resolves true iff `need` successes arrived.
  Task<bool> Wait() {
    co_await done_.Wait();
    co_return successes_ >= need_;
  }

  bool reached() const { return successes_ >= need_; }
  int arrived() const { return arrived_; }
  int successes() const { return successes_; }

 private:
  Event done_;
  int need_;
  int total_;
  int arrived_ = 0;
  int successes_ = 0;
};

template <typename T>
class Channel {
 public:
  explicit Channel(Simulator* sim) : sim_(sim) {}

  void Push(T item) {
    items_.push_back(std::move(item));
    if (!consumers_.empty()) {
      auto h = consumers_.front();
      consumers_.pop_front();
      sim_->Resume(h);
    }
  }

  // Awaits the next item. Multiple concurrent consumers are served FIFO.
  Task<T> Pop() {
    while (items_.empty()) {
      co_await Park();
    }
    T item = std::move(items_.front());
    items_.pop_front();
    co_return item;
  }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

 private:
  auto Park() {
    struct Awaiter {
      Channel* channel;
      bool await_ready() const noexcept { return !channel->items_.empty(); }
      void await_suspend(std::coroutine_handle<> h) {
        channel->consumers_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  Simulator* sim_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> consumers_;
};

class Mutex {
 public:
  explicit Mutex(Simulator* sim) : sim_(sim) {}

  auto Lock() {
    struct Awaiter {
      Mutex* mutex;
      bool await_ready() const noexcept {
        if (!mutex->locked_) {
          mutex->locked_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        mutex->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void Unlock() {
    PRISM_CHECK(locked_);
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->Resume(h);  // lock ownership transfers to the woken waiter
    } else {
      locked_ = false;
    }
  }

  bool locked() const { return locked_; }

 private:
  Simulator* sim_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

// N-server FIFO queueing station.
class ServiceQueue {
 public:
  ServiceQueue(Simulator* sim, int servers) : sim_(sim), servers_(servers) {
    PRISM_CHECK_GT(servers, 0);
  }

  // Occupies one server for `service` time; resumes the caller when done.
  Task<void> Use(Duration service) {
    co_await Acquire();
    co_await SleepFor(sim_, service);
    Release();
  }

  int busy() const { return busy_; }
  int servers() const { return servers_; }
  size_t queue_length() const { return waiters_.size(); }
  // Aggregate busy time across servers (server-seconds), maintained as a
  // time integral of the busy level: utilization = busy/(servers*elapsed).
  Duration total_busy() const {
    return busy_integral_ + busy_ * (sim_->Now() - last_change_);
  }

  // Manual hold: co_await Acquire(), do interleaved work, then Release().
  // Used when a server must stay occupied across several awaits (e.g. a
  // software-PRISM core executing each op of a chain in its own event).
  // Prefer Use() when the hold is a single fixed duration.
  struct AcquireAwaiter {
    ServiceQueue* q;
    bool await_ready() const noexcept {
      if (q->busy_ < q->servers_) {
        q->OnBusyChange();
        ++q->busy_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      q->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  AcquireAwaiter Acquire() { return AcquireAwaiter{this}; }

  void Release() {
    PRISM_CHECK_GT(busy_, 0);
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->Resume(h);  // server slot passes directly to the next waiter
    } else {
      OnBusyChange();
      --busy_;
    }
  }

 private:
  void OnBusyChange() const {
    busy_integral_ += busy_ * (sim_->Now() - last_change_);
    last_change_ = sim_->Now();
  }

  Simulator* sim_;
  int servers_;
  int busy_ = 0;
  mutable Duration busy_integral_ = 0;
  mutable TimePoint last_change_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace prism::sim

#endif  // PRISM_SRC_SIM_SYNC_H_
