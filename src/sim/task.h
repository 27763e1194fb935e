// Lazy coroutine Task<T> integrated with the discrete-event simulator.
//
// Protocol code (ABD quorum phases, FaRM's three-phase commit, retry loops)
// is written as ordinary-looking sequential coroutines:
//
//   sim::Task<Status> Put(...) {
//     auto slot = co_await client.Read(...);
//     ...
//     co_return OkStatus();
//   }
//
// Semantics:
//  * Tasks are lazy: nothing runs until the task is co_awaited (or handed to
//    Spawn). Awaiting starts the child via symmetric transfer and resumes the
//    parent when the child finishes.
//  * Tasks are move-only and own their coroutine frame; the awaiting frame
//    keeps the child Task alive across the suspension, so there is no
//    reference counting.
//  * Exceptions terminate: error flow uses Status/Result<T> (see status.h).
//  * Spawn() runs a Task<void> as a detached root; the simulator can report
//    how many spawned roots are still live (RunUntilIdle diagnostics).
//
// WARNING — GCC 12 coroutine lowering bugs, and the conventions this
// codebase uses to stay clear of them (each was bisected to a minimal
// reproducer; all manifest as double destruction / frame corruption that
// ASan reports far from the cause):
//
//  1. Do NOT pass capturing lambdas (or std::functions wrapping them) as
//     by-value parameters to coroutines. The parameter-to-frame copy is
//     miscompiled for closure types. Pass plain data (values,
//     shared_ptr<Args>) and run effects in the awaiting coroutine's body.
//     Lambda *coroutines* handed to Spawn are safe — the driver keeps the
//     closure alive in its frame.
//  2. Do NOT write `co_return co_await Child(...)`. Assign to a named local
//     first, then co_return it.
//  3. Do NOT materialize *nested* nontrivial temporaries inside a co_await
//     full-expression: `co_await c.Call(Make(Inner{"x"}))` double-destroys
//     Inner{"x"}. Direct-argument temporaries (`co_await c.Call(Make())`)
//     are fine. Hoist nested construction into named locals before the
//     co_await statement.
//  4. Result<T> avoids std::variant storage (see common/status.h) because
//     variant temporaries in co_await initializations are miscompiled.
#ifndef PRISM_SRC_SIM_TASK_H_
#define PRISM_SRC_SIM_TASK_H_

#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/common/logging.h"
#include "src/sim/frame_cache.h"
#include "src/sim/simulator.h"

namespace prism::sim {

namespace internal {

// Shared continuation plumbing for Task<T> promises. Frames come from the
// per-thread FrameCache (frame_cache.h).
struct PromiseBase : CachedFrame {
  std::coroutine_handle<> continuation;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  [[noreturn]] void unhandled_exception() noexcept { std::terminate(); }
};

}  // namespace internal

template <typename T = void>
class [[nodiscard]] Task;

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool done() const { return !handle_ || handle_.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;  // symmetric transfer: start the child now
      }
      T await_resume() {
        PRISM_CHECK(handle.promise().value.has_value())
            << "Task finished without co_return value";
        return std::move(*handle.promise().value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  friend class Simulator;
  template <typename U>
  friend class Task;
  explicit Task(Handle h) : handle_(h) {}
  Handle handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool done() const { return !handle_ || handle_.done(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{handle_};
  }

 private:
  explicit Task(Handle h) : handle_(h) {}
  Handle handle_;
};

// ---- detached root tasks ----

namespace internal {

// Fire-and-forget driver coroutine: starts immediately, self-destroys at
// final_suspend (suspend_never), and owns the driven Task in its frame.
struct Detached {
  struct promise_type : CachedFrame {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    [[noreturn]] void unhandled_exception() noexcept { std::terminate(); }
  };
};

}  // namespace internal

// Tracks how many detached roots are still running; owned by test/bench
// harnesses that want to assert clean shutdown.
class TaskTracker {
 public:
  void OnStart() { ++live_; }
  void OnFinish() {
    PRISM_CHECK_GT(live_, 0);
    --live_;
  }
  int live() const { return live_; }

 private:
  int live_ = 0;
};

namespace internal {

// Drives a ready-made task. The Task parameter is moved into the driver
// frame, which owns it until completion.
inline Detached DriveTask(Task<void> task, TaskTracker* tracker) {
  if (tracker != nullptr) tracker->OnStart();
  co_await std::move(task);
  if (tracker != nullptr) tracker->OnFinish();
}

// Drives a callable returning Task<void>. The callable itself (typically a
// capturing lambda) is copied into the driver frame, keeping its closure
// alive for the lifetime of the coroutine. This matters: a capturing lambda
// coroutine's frame refers back into the closure object, so invoking a
// temporary lambda and detaching the resulting task dangles. Passing the
// callable instead is always safe.
template <typename F>
Detached DriveCallable(F fn, TaskTracker* tracker) {
  if (tracker != nullptr) tracker->OnStart();
  co_await fn();
  if (tracker != nullptr) tracker->OnFinish();
}

}  // namespace internal

// Runs a detached root task. Two forms:
//   Spawn(SomeCoroutineFunction(args...))   — task from a *non-capturing*
//       source (free function, member function on a long-lived object);
//   Spawn([=]() -> Task<void> { ... })      — callable form; required for
//       capturing lambdas (the closure is kept alive in the driver frame).
// The task begins executing at the *current* event, synchronously up to its
// first suspension, matching the semantics of spawning a thread.
inline void Spawn(Task<void> task, TaskTracker* tracker = nullptr) {
  internal::DriveTask(std::move(task), tracker);
}

template <typename F>
  requires std::is_invocable_r_v<Task<void>, F>
void Spawn(F&& fn, TaskTracker* tracker = nullptr) {
  internal::DriveCallable(std::forward<F>(fn), tracker);
}

// ---- awaitables tied to the simulator ----

// co_await SleepFor(sim, d): resume after d simulated nanoseconds.
struct SleepAwaiter {
  Simulator* sim;
  Duration delay;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim->Resume(h, delay);
  }
  void await_resume() const noexcept {}
};

inline SleepAwaiter SleepFor(Simulator* sim, Duration d) {
  PRISM_CHECK_GE(d, 0);
  return SleepAwaiter{sim, d};
}

// co_await Yield(sim): requeue behind events already scheduled for "now".
inline SleepAwaiter Yield(Simulator* sim) { return SleepAwaiter{sim, 0}; }

}  // namespace prism::sim

#endif  // PRISM_SRC_SIM_TASK_H_
