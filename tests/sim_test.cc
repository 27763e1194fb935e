// Tests for the discrete-event simulator and coroutine framework.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/deadline.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

// Global allocation counter used by the *AllocatesNothing tests. The
// default operator new[] forwards here, so scalar overrides cover both forms.
namespace {
uint64_t g_new_calls = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace prism::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Micros(3), [&] { order.push_back(3); });
  sim.Schedule(Micros(1), [&] { order.push_back(1); });
  sim.Schedule(Micros(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Micros(3));
}

TEST(SimulatorTest, EqualTimestampsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Micros(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  TimePoint inner_time = -1;
  sim.Schedule(Micros(1), [&] {
    sim.Schedule(Micros(2), [&] { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_time, Micros(3));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Micros(1), [&] { fired++; });
  sim.Schedule(Micros(10), [&] { fired++; });
  sim.RunUntil(Micros(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Micros(5));
  EXPECT_FALSE(sim.idle());
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(TaskTest, SpawnRunsToCompletion) {
  Simulator sim;
  bool done = false;
  auto coro = [&]() -> Task<void> {
    co_await SleepFor(&sim, Micros(7));
    done = true;
  };
  Spawn(coro());
  EXPECT_FALSE(done);  // lazy until first event
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.Now(), Micros(7));
}

TEST(TaskTest, SpawnStartsSynchronouslyUntilFirstSuspend) {
  Simulator sim;
  bool started = false;
  auto coro = [&]() -> Task<void> {
    started = true;
    co_await SleepFor(&sim, Micros(1));
  };
  Spawn(coro());
  EXPECT_TRUE(started);
  sim.Run();
}

TEST(TaskTest, NestedAwaitPropagatesValue) {
  Simulator sim;
  auto inner = [&](int x) -> Task<int> {
    co_await SleepFor(&sim, Micros(2));
    co_return x * 2;
  };
  int result = 0;
  auto outer = [&]() -> Task<void> {
    int a = co_await inner(10);
    int b = co_await inner(a);
    result = b;
  };
  Spawn(outer());
  sim.Run();
  EXPECT_EQ(result, 40);
  EXPECT_EQ(sim.Now(), Micros(4));
}

TEST(TaskTest, DeeplyNestedTasks) {
  Simulator sim;
  // Recursion depth 200: verifies symmetric transfer does not blow the stack
  // and values propagate through every level.
  std::function<Task<int>(int)> chain = [&](int n) -> Task<int> {
    if (n == 0) {
      co_await SleepFor(&sim, Micros(1));
      co_return 1;
    }
    int v = co_await chain(n - 1);
    co_return v + 1;
  };
  int result = 0;
  Spawn([&]() -> Task<void> { result = co_await chain(200); });
  sim.Run();
  EXPECT_EQ(result, 201);
}

TEST(TaskTest, TrackerCountsLiveTasks) {
  Simulator sim;
  TaskTracker tracker;
  auto coro = [&](Duration d) -> Task<void> { co_await SleepFor(&sim, d); };
  Spawn(coro(Micros(1)), &tracker);
  Spawn(coro(Micros(5)), &tracker);
  EXPECT_EQ(tracker.live(), 2);
  sim.RunUntil(Micros(2));
  EXPECT_EQ(tracker.live(), 1);
  sim.Run();
  EXPECT_EQ(tracker.live(), 0);
}

TEST(TaskTest, ManyConcurrentTasksInterleave) {
  Simulator sim;
  int done = 0;
  for (int i = 0; i < 1000; ++i) {
    Spawn([&sim, &done, i]() -> Task<void> {
      co_await SleepFor(&sim, Micros(i % 17));
      co_await SleepFor(&sim, Micros(i % 5));
      done++;
    });
  }
  sim.Run();
  EXPECT_EQ(done, 1000);
}

TEST(EventTest, WaitersWakeOnSet) {
  Simulator sim;
  Event event(&sim);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    Spawn([&]() -> Task<void> {
      co_await event.Wait();
      woke++;
    });
  }
  sim.Schedule(Micros(10), [&] { event.Set(); });
  sim.RunUntil(Micros(9));
  EXPECT_EQ(woke, 0);
  sim.Run();
  EXPECT_EQ(woke, 3);
}

TEST(EventTest, WaitOnSetEventIsImmediate) {
  Simulator sim;
  Event event(&sim);
  event.Set();
  bool done = false;
  Spawn([&]() -> Task<void> {
    co_await event.Wait();
    done = true;
  });
  EXPECT_TRUE(done);  // never suspended
}

TEST(QuorumTest, ReachesOnKSuccesses) {
  Simulator sim;
  Quorum quorum(&sim, 2, 3);
  bool result = false;
  bool finished = false;
  Spawn([&]() -> Task<void> {
    result = co_await quorum.Wait();
    finished = true;
  });
  sim.Schedule(Micros(1), [&] { quorum.Arrive(true); });
  sim.Schedule(Micros(2), [&] { quorum.Arrive(true); });
  sim.Run();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(result);
  EXPECT_EQ(sim.Now(), Micros(2));  // woke without waiting for the third
}

TEST(QuorumTest, FailsFastWhenUnreachable) {
  Simulator sim;
  Quorum quorum(&sim, 3, 3);
  bool result = true;
  Spawn([&]() -> Task<void> { result = co_await quorum.Wait(); });
  sim.Schedule(Micros(1), [&] { quorum.Arrive(false); });
  sim.Run();
  EXPECT_FALSE(result);  // 3-of-3 impossible after one failure
}

TEST(ChannelTest, PushPopOrdering) {
  Simulator sim;
  Channel<int> channel(&sim);
  std::vector<int> received;
  Spawn([&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      received.push_back(co_await channel.Pop());
    }
  });
  sim.Schedule(Micros(1), [&] { channel.Push(10); });
  sim.Schedule(Micros(2), [&] {
    channel.Push(20);
    channel.Push(30);
  });
  sim.Run();
  EXPECT_EQ(received, (std::vector<int>{10, 20, 30}));
}

TEST(ChannelTest, MultipleConsumersFifo) {
  Simulator sim;
  Channel<int> channel(&sim);
  std::vector<std::pair<int, int>> got;  // (consumer, item)
  for (int c = 0; c < 2; ++c) {
    Spawn([&, c]() -> Task<void> {
      int item = co_await channel.Pop();
      got.emplace_back(c, item);
    });
  }
  channel.Push(1);
  channel.Push(2);
  sim.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 2}));
}

TEST(MutexTest, MutualExclusionFifo) {
  Simulator sim;
  Mutex mutex(&sim);
  std::vector<int> order;
  int in_critical = 0;
  for (int i = 0; i < 5; ++i) {
    Spawn([&, i]() -> Task<void> {
      co_await mutex.Lock();
      EXPECT_EQ(in_critical, 0);
      in_critical++;
      co_await SleepFor(&sim, Micros(3));
      order.push_back(i);
      in_critical--;
      mutex.Unlock();
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(mutex.locked());
}

TEST(ServiceQueueTest, SingleServerSerializes) {
  Simulator sim;
  ServiceQueue q(&sim, 1);
  std::vector<TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    Spawn([&]() -> Task<void> {
      co_await q.Use(Micros(10));
      completions.push_back(sim.Now());
    });
  }
  sim.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], Micros(10));
  EXPECT_EQ(completions[1], Micros(20));
  EXPECT_EQ(completions[2], Micros(30));
}

TEST(ServiceQueueTest, ParallelServers) {
  Simulator sim;
  ServiceQueue q(&sim, 4);
  std::vector<TimePoint> completions;
  for (int i = 0; i < 8; ++i) {
    Spawn([&]() -> Task<void> {
      co_await q.Use(Micros(10));
      completions.push_back(sim.Now());
    });
  }
  sim.Run();
  ASSERT_EQ(completions.size(), 8u);
  // Two waves of four.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(completions[i], Micros(10));
  for (int i = 4; i < 8; ++i) EXPECT_EQ(completions[i], Micros(20));
}

TEST(ServiceQueueTest, UtilizationAccounting) {
  Simulator sim;
  ServiceQueue q(&sim, 2);
  for (int i = 0; i < 6; ++i) {
    Spawn([&]() -> Task<void> { co_await q.Use(Micros(5)); });
  }
  sim.Run();
  EXPECT_EQ(q.total_busy(), Micros(30));
  EXPECT_EQ(sim.Now(), Micros(15));  // 6 jobs / 2 servers * 5us
}

TEST(SimulatorTest, RingAndTimerMergeBySequence) {
  // A timer that lands at time T and a zero-delay event pushed *while the
  // simulator is at T* must interleave in global schedule order: the timer
  // was scheduled first (lower seq) so it fires first.
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Micros(1), [&] {
    order.push_back(1);
    sim.Schedule(0, [&] { order.push_back(3); });  // ring lane, seq > timer's
  });
  sim.Schedule(Micros(1), [&] { order.push_back(2); });  // timer, same when
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ScheduleAtNowTakesRingLane) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(sim.Now(), [&] { fired++; });
  const uint64_t ring = sim.stats().zero_delay_events;
  EXPECT_EQ(ring, 1u);
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, MoveOnlyCallables) {
  Simulator sim;
  int got = 0;
  auto payload = std::make_unique<int>(42);
  sim.Schedule(Micros(1), [&got, p = std::move(payload)] { got = *p; });
  sim.Run();
  EXPECT_EQ(got, 42);
}

TEST(SimulatorTest, OversizedCaptureSpillsToHeapAndStillFires) {
  Simulator sim;
  struct Big {
    char bytes[96] = {};  // > EventRecord::kInlineBytes
  };
  Big big;
  big.bytes[95] = 7;
  int got = 0;
  int small = 0;
  sim.Schedule(Micros(1), [&got, big] { got = big.bytes[95]; });
  sim.Schedule(Micros(2), [&small] { small = 1; });  // fits inline
  EXPECT_EQ(sim.stats().heap_callables, 1u);
  sim.Run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(small, 1);
}

TEST(SimulatorTest, PendingEventsDisposedOnDestruction) {
  // Never-fired events (ring, wheel, and overflow) must release their
  // captured state when the simulator dies.
  auto token = std::make_shared<int>(1);
  {
    Simulator sim;
    sim.Schedule(0, [t = token] {});
    sim.Schedule(Micros(5), [t = token] {});
    sim.Schedule(Seconds(10), [t = token] {});  // far beyond wheel horizon
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorTest, FarFutureTimersOverflowAndMigrate) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(2), [&] { order.push_back(3); });
  sim.Schedule(Seconds(1), [&] { order.push_back(2); });
  sim.Schedule(Micros(1), [&] { order.push_back(1); });
  EXPECT_GE(sim.stats().overflow_events, 2u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Seconds(2));
}

TEST(SimulatorTest, StatsCountLanes) {
  Simulator sim;
  sim.Schedule(Micros(3), [] {});
  sim.Schedule(0, [] {});
  sim.Schedule(0, [] {});
  EXPECT_EQ(sim.stats().zero_delay_events, 2u);
  EXPECT_EQ(sim.stats().timer_events, 1u);
  sim.Run();
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(SimulatorTest, ZeroDelayFastPathAllocatesNothing) {
  Simulator sim;
  // Warm-up: grow the event pool and the ring to steady-state width, and let
  // coroutine frames etc. settle.
  constexpr int kWidth = 64;
  int warm = 0;
  for (int i = 0; i < kWidth; ++i) sim.Schedule(0, [&warm] { warm++; });
  sim.Run();
  EXPECT_EQ(warm, kWidth);

  // Measured phase: a self-sustaining zero-delay cascade. Every Schedule hit
  // must reuse pooled records with inline callable storage — zero heap
  // allocations end to end.
  int fired = 0;
  struct Chain {
    Simulator* sim;
    int* fired;
    int remaining;
    void operator()() {
      ++*fired;
      if (--remaining > 0) sim->Schedule(0, Chain{sim, fired, remaining});
    }
  };
  for (int i = 0; i < kWidth; ++i) {
    sim.Schedule(0, Chain{&sim, &fired, /*remaining=*/1000});
  }
  const uint64_t allocs_before = g_new_calls;
  sim.Run();
  const uint64_t allocs_during = g_new_calls - allocs_before;
  EXPECT_EQ(allocs_during, 0u);
  EXPECT_EQ(fired, kWidth * 1000);
}

// ---------- schedule-space exploration hook ----------

// Records every enabled window it is shown and picks a scripted index.
class ScriptedHook : public ScheduleHook {
 public:
  ScriptedHook(Duration window, std::vector<size_t> picks)
      : window_(window), picks_(std::move(picks)) {}

  Duration window() const override { return window_; }
  size_t Pick(const std::vector<EnabledEvent>& enabled) override {
    windows_.push_back(enabled);
    if (next_ < picks_.size()) return picks_[next_++];
    return 0;
  }

  const std::vector<std::vector<EnabledEvent>>& windows() const {
    return windows_;
  }

 private:
  Duration window_;
  std::vector<size_t> picks_;
  size_t next_ = 0;
  std::vector<std::vector<EnabledEvent>> windows_;
};

TEST(ScheduleHookTest, EnabledWindowIsSortedAndBounded) {
  Simulator sim;
  ScriptedHook hook(/*window=*/Nanos(200), /*picks=*/{});
  sim.SetScheduleHook(&hook);
  std::vector<int> fired;
  sim.Schedule(Nanos(100), [&] { fired.push_back(0); });
  sim.Schedule(Nanos(100), [&] { fired.push_back(1); });
  sim.Schedule(Nanos(150), [&] { fired.push_back(2); });
  sim.Schedule(Nanos(400), [&] { fired.push_back(3); });
  sim.Run();
  // Identity picks: production order.
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(hook.windows().size(), 4u);
  // First window: the two ties at 100 plus 150 (within 100+200); the event
  // at 400 is outside. Entries sorted by (when, seq).
  const auto& w0 = hook.windows()[0];
  ASSERT_EQ(w0.size(), 3u);
  EXPECT_EQ(w0[0].when, Nanos(100));
  EXPECT_EQ(w0[1].when, Nanos(100));
  EXPECT_LT(w0[0].seq, w0[1].seq);
  EXPECT_EQ(w0[2].when, Nanos(150));
  // Last window: only the 400 ns event remains.
  EXPECT_EQ(hook.windows()[3].size(), 1u);
}

TEST(ScheduleHookTest, PickedEventFiresAtItsOwnTimeAndDelaysTheRest) {
  Simulator sim;
  // One decision: from the first window pick index 2 (the 150 ns event).
  ScriptedHook hook(Nanos(200), {2});
  sim.SetScheduleHook(&hook);
  std::vector<std::pair<int, TimePoint>> fired;
  sim.Schedule(Nanos(100), [&] { fired.push_back({0, sim.Now()}); });
  sim.Schedule(Nanos(100), [&] { fired.push_back({1, sim.Now()}); });
  sim.Schedule(Nanos(150), [&] { fired.push_back({2, sim.Now()}); });
  sim.Run();
  ASSERT_EQ(fired.size(), 3u);
  // The 150 ns event jumps the queue and fires at its scheduled time —
  // never earlier (no premature execution).
  EXPECT_EQ(fired[0], (std::pair<int, TimePoint>{2, Nanos(150)}));
  // The delayed ties fire afterwards, late but in FIFO order, within the
  // soundness bound when + window.
  EXPECT_EQ(fired[1].first, 0);
  EXPECT_EQ(fired[2].first, 1);
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_GE(fired[i].second, Nanos(100));
    EXPECT_LE(fired[i].second, Nanos(100) + Nanos(200));
  }
}

TEST(ScheduleHookTest, AdversarialPicksStayWithinSoundnessBound) {
  // Always pick the LAST enabled event: maximal reordering pressure. Every
  // event must still fire within [when, when + window], and all of them
  // must fire exactly once.
  Simulator sim;
  class LastHook : public ScheduleHook {
   public:
    Duration window() const override { return Nanos(300); }
    size_t Pick(const std::vector<EnabledEvent>& enabled) override {
      return enabled.size() - 1;
    }
  } hook;
  sim.SetScheduleHook(&hook);
  std::vector<std::pair<TimePoint, TimePoint>> fired;  // (scheduled, actual)
  for (int i = 0; i < 64; ++i) {
    const TimePoint when = Nanos(50 * (i % 16));
    sim.ScheduleAt(when, [&fired, when, &sim] {
      fired.push_back({when, sim.Now()});
    });
  }
  sim.Run();
  ASSERT_EQ(fired.size(), 64u);
  for (const auto& [when, at] : fired) {
    EXPECT_GE(at, when);
    EXPECT_LE(at, when + Nanos(300));
  }
}

TEST(ScheduleHookTest, OutOfRangePickFallsBackToFront) {
  Simulator sim;
  ScriptedHook hook(Nanos(100), {99, 99, 99});
  sim.SetScheduleHook(&hook);
  std::vector<int> fired;
  sim.Schedule(Nanos(10), [&] { fired.push_back(0); });
  sim.Schedule(Nanos(20), [&] { fired.push_back(1); });
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
}

TEST(ScheduleHookTest, RunUntilDeadlineHoldsUnderHook) {
  Simulator sim;
  // Generous window that would otherwise let the 120 ns event into the
  // first enabled set; the deadline must clip it.
  ScriptedHook hook(Nanos(1000), {1});
  sim.SetScheduleHook(&hook);
  std::vector<int> fired;
  sim.Schedule(Nanos(50), [&] { fired.push_back(0); });
  sim.Schedule(Nanos(120), [&] { fired.push_back(1); });
  sim.RunUntil(Nanos(100));
  // Only the 50 ns event ran (the scripted pick of index 1 was clipped to
  // the lone in-deadline event and fell back to it).
  EXPECT_EQ(fired, (std::vector<int>{0}));
  EXPECT_EQ(sim.Now(), Nanos(100));
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
}

TEST(ScheduleHookTest, HookedEventsDisposedOnDestruction) {
  ScriptedHook hook(Nanos(100), {});
  auto guard = std::make_shared<int>(7);
  {
    Simulator sim;
    sim.SetScheduleHook(&hook);
    sim.Schedule(Nanos(10), [guard] { (void)*guard; });
    EXPECT_EQ(guard.use_count(), 2);
  }
  // The undrained hooked event was destroyed, not leaked.
  EXPECT_EQ(guard.use_count(), 1);
}

TEST(SleepTest, ZeroSleepYields) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(0, [&] { order.push_back(2); });
  Spawn([&]() -> Task<void> {
    order.push_back(1);  // spawn runs synchronously to the first suspension,
    co_await Yield(&sim);  // then requeues behind the already-queued event
    order.push_back(3);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---------- deadline queue ----------

constexpr Duration kTimeout = Millis(5);

// An op state that records when (and whether) its deadline expired.
struct Guarded {
  Guarded(Simulator* sim, std::vector<std::string>* log, std::string name)
      : sim(sim), log(log), name(std::move(name)) {}
  Simulator* sim;
  std::vector<std::string>* log;
  std::string name;
  TimePoint expired_at = -1;
  Deadline deadline{
      [](void* s) {
        auto* g = static_cast<Guarded*>(s);
        g->expired_at = g->sim->Now();
        g->log->push_back(g->name);
      },
      this};
};

TEST(DeadlineQueueTest, ExpiryFiresAtExactlyArmPlusTimeout) {
  Simulator sim;
  DeadlineQueue q(&sim, kTimeout);
  std::vector<std::string> log;
  Guarded a(&sim, &log, "a");
  sim.Schedule(Micros(7), [&] { q.Arm(&a.deadline); });
  sim.Schedule(Micros(7) + kTimeout - 1, [&] { EXPECT_TRUE(log.empty()); });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"a"}));
  EXPECT_EQ(a.expired_at, Micros(7) + kTimeout);
  EXPECT_FALSE(a.deadline.armed());
  EXPECT_EQ(sim.Now(), Micros(7) + kTimeout);
}

TEST(DeadlineQueueTest, DelayedArmExpiresOneTimeoutAfterTheDelay) {
  // An op whose request leaves `delay` after it arms expires one timeout
  // after that instant; arms that share the delay stay in expiry order.
  Simulator sim;
  DeadlineQueue q(&sim, kTimeout);
  std::vector<std::string> log;
  Guarded a(&sim, &log, "a"), b(&sim, &log, "b");
  sim.Schedule(Micros(7), [&] { q.Arm(&a.deadline, Nanos(350)); });
  sim.Schedule(Micros(8), [&] { q.Arm(&b.deadline, Nanos(350)); });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(a.expired_at, Micros(7) + Nanos(350) + kTimeout);
  EXPECT_EQ(b.expired_at, Micros(8) + Nanos(350) + kTimeout);
}

TEST(DeadlineQueueTest, SameTickExpiriesRunInArmOrder) {
  Simulator sim;
  DeadlineQueue q(&sim, kTimeout);
  std::vector<std::string> log;
  Guarded a(&sim, &log, "a"), b(&sim, &log, "b"), c(&sim, &log, "c"),
      d(&sim, &log, "d");
  sim.Schedule(Micros(1), [&] {
    q.Arm(&c.deadline);
    q.Arm(&a.deadline);
    q.Arm(&d.deadline);
  });
  sim.Schedule(Micros(2), [&] { q.Arm(&b.deadline); });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"c", "a", "d", "b"}));
  EXPECT_EQ(a.expired_at, Micros(1) + kTimeout);
  EXPECT_EQ(b.expired_at, Micros(2) + kTimeout);
}

TEST(DeadlineQueueTest, InOrderAndOutOfOrderCancelsSuppressExpiry) {
  Simulator sim;
  DeadlineQueue q(&sim, kTimeout);
  std::vector<std::string> log;
  Guarded a(&sim, &log, "a"), b(&sim, &log, "b"), c(&sim, &log, "c"),
      d(&sim, &log, "d"), e(&sim, &log, "e");
  for (Guarded* g : {&a, &b, &c, &d, &e}) q.Arm(&g->deadline);
  EXPECT_EQ(q.armed(), 5u);
  b.deadline.Cancel();  // out of order: from the middle
  d.deadline.Cancel();
  a.deadline.Cancel();  // in order: the head
  EXPECT_EQ(q.armed(), 2u);
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"c", "e"}));
  EXPECT_EQ(q.armed(), 0u);
}

TEST(DeadlineQueueTest, CancelAfterExpiryIsANoOp) {
  Simulator sim;
  DeadlineQueue q(&sim, kTimeout);
  std::vector<std::string> log;
  Guarded a(&sim, &log, "a"), b(&sim, &log, "b");
  q.Arm(&a.deadline);
  sim.RunFor(kTimeout);
  EXPECT_EQ(log, (std::vector<std::string>{"a"}));
  a.deadline.Cancel();
  a.deadline.Cancel();
  // The queue still works: a fresh arm expires one timeout later.
  q.Arm(&b.deadline);
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(b.expired_at, 2 * kTimeout);
  EXPECT_EQ(q.armed(), 0u);
}

TEST(DeadlineQueueTest, DestroyedDeadlineNeverExpires) {
  Simulator sim;
  DeadlineQueue q(&sim, kTimeout);
  std::vector<std::string> log;
  {
    Guarded a(&sim, &log, "a");
    q.Arm(&a.deadline);
  }
  Guarded b(&sim, &log, "b");
  q.Arm(&b.deadline);
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"b"}));
}

TEST(DeadlineQueueTest, ThousandArmCancelPairsLeaveAtMostOneEnginePending) {
  Simulator sim;
  DeadlineQueue q(&sim, kTimeout);
  std::vector<std::string> log;
  Guarded g(&sim, &log, "g");
  for (int i = 0; i < 1000; ++i) {
    q.Arm(&g.deadline);
    g.deadline.Cancel();
    EXPECT_LE(sim.pending_events(), 1u);
    sim.RunFor(Nanos(100));
  }
  EXPECT_LE(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_TRUE(log.empty());
  // One timer event in all, where per-op timers would have fired 1000.
  EXPECT_EQ(sim.executed_events(), 1u);
}

// A client op in miniature: the state carries the deadline, a "response"
// event resolves it, and the op cancels the deadline once done.
struct MiniOp {
  explicit MiniOp(Simulator* sim) : done(sim) {}
  Event done;
  bool timed_out = false;
  Deadline deadline{
      [](void* s) {
        auto* op = static_cast<MiniOp*>(s);
        op->timed_out = true;
        op->done.Set();
      },
      this};
};

Task<void> RunMiniOp(Simulator* sim, DeadlineQueue* q,
                     std::weak_ptr<MiniOp>* seen, bool* returned) {
  auto state = std::make_shared<MiniOp>(sim);
  *seen = state;
  q->Arm(&state->deadline);
  sim->Schedule(Micros(3), [state] { state->done.Set(); });
  co_await state->done.Wait();
  state->deadline.Cancel();
  EXPECT_FALSE(state->timed_out);
  *returned = true;
}

TEST(DeadlineQueueTest, OpStateIsFreedWhenTheOpReturns) {
  Simulator sim;
  DeadlineQueue q(&sim, kTimeout);
  std::weak_ptr<MiniOp> seen;
  bool returned = false;
  Spawn(RunMiniOp(&sim, &q, &seen, &returned));
  sim.RunFor(Micros(10));
  ASSERT_TRUE(returned);
  // The queue's timer is still pending, yet it holds no reference.
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(seen.expired());
  sim.Run();
}

// ---------- coroutine frame cache ----------

Task<int> Leaf(int v) { co_return v + 1; }

Task<int> Middle(ServiceQueue* q, int v) {
  const int a = co_await Leaf(v);
  co_await q->Use(Nanos(100));
  const int b = co_await Leaf(a);
  co_return b;
}

Task<void> NestedLoop(ServiceQueue* q, int iterations, int* sum) {
  for (int i = 0; i < iterations; ++i) {
    const int r = co_await Middle(q, i);
    *sum += r;
  }
}

TEST(FrameCacheTest, WarmedNestedTaskLoopAllocatesNothing) {
  Simulator sim;
  ServiceQueue q(&sim, /*servers=*/1);
  int sum = 0;
  // Warm-up spans more than the wheel horizon (~262 µs), so every wheel
  // slot and every frame size class has been touched once.
  Spawn(NestedLoop(&q, 4000, &sum));
  sim.Run();
  const uint64_t allocs_before = g_new_calls;
  Spawn(NestedLoop(&q, 1000, &sum));
  sim.Run();
  EXPECT_EQ(g_new_calls - allocs_before, 0u);
  EXPECT_EQ(sum, 4000 * 2 + 3999 * 4000 / 2 + 1000 * 2 + 999 * 1000 / 2);
}

uint64_t AllocationsOfOneSimulation() {
  const uint64_t before = g_new_calls;
  {
    Simulator sim;
    ServiceQueue q(&sim, /*servers=*/2);
    int sum = 0;
    for (int i = 0; i < 8; ++i) Spawn(NestedLoop(&q, 50, &sum));
    sim.Run();
  }
  return g_new_calls - before;
}

TEST(FrameCacheTest, BackToBackSimulationsAllocateTheSameCount) {
  // The last Simulator on the thread drains the cache, so the second run
  // starts as cold as the first instead of reusing its frames.
  const uint64_t first = AllocationsOfOneSimulation();
  const uint64_t second = AllocationsOfOneSimulation();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
}

#if defined(__SANITIZE_ADDRESS__)
// Records the address of the awaiting coroutine's own frame.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;  // resume at once
  }
  void await_resume() const noexcept {}
};

Task<void> RecordFrame(void** out) { co_await FrameAddress{out}; }

TEST(FrameCacheTest, DestroyedFrameIsPoisonedWhileCached) {
  Simulator sim;  // caching is on while a Simulator lives
  void* frame = nullptr;
  Spawn(RecordFrame(&frame));  // runs to completion; the frame is freed
  ASSERT_NE(frame, nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
}
#endif

}  // namespace
}  // namespace prism::sim
