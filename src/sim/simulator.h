// The discrete-event simulator at the heart of the PRISM testbed model.
//
// Single-threaded and deterministic: events at equal timestamps fire in
// insertion (FIFO) order, so a given seed replays bit-identically. Protocol
// code runs as coroutines (see task.h) whose suspensions are simulator
// events; "concurrency" between simulated clients, NICs, and CPU cores is
// event interleaving, which is precisely the concurrency the PRISM paper's
// atomicity arguments are about.
//
// Engine internals (see DESIGN.md "Event engine internals"):
//  * Events are pooled records with small-buffer-optimized inline callable
//    storage — no per-event heap allocation unless a capture exceeds
//    EventRecord::kInlineBytes (then the callable alone spills to the heap).
//  * Zero-delay events (Schedule(0, ..) / Resume(h) — the dominant class:
//    coroutine wakeups, service-queue handoffs, loopback/drop paths) go
//    through a FIFO ring lane: O(1) push/pop, no comparisons.
//  * Timed events go into a calendar queue: a 1024-slot timing wheel of
//    256 ns slots (~262 µs horizon) with a binary-heap overflow bucket for
//    far-future timers (the fabric's op-deadline timer). Schedule and
//    pop are O(1) amortized; a slot is sorted once when the wheel reaches
//    it. Overflow timers migrate into the wheel as the horizon advances.
//  * Ordering keys (when, seq) travel in 24-byte EventRef entries separate
//    from the records, so sorts and heap ops touch contiguous memory.
//  * Total order is always (when, seq): the ring and the calendar queue are
//    merged by comparing sequence numbers at equal timestamps, so the
//    determinism contract is bit-identical to the reference binary-heap
//    engine.
#ifndef PRISM_SRC_SIM_SIMULATOR_H_
#define PRISM_SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/frame_cache.h"
#include "src/sim/time.h"

namespace prism::sim {

// ---- schedule-space exploration hook (src/explore) ----
//
// A ScheduleHook lets a test harness observe and reorder the simulator's
// *enabled set*: all pending events whose timestamp lies within
// [earliest.when, earliest.when + window()]. Events at equal timestamps are
// semantically unordered ties, and events within the window model delivery
// jitter of up to `window()` nanoseconds — both are legal schedules of the
// same program. Soundness bound: an event can never fire before its
// scheduled time, and it fires no later than earliest_pending.when +
// window() (while it is pending it anchors the window), so every event
// executes within [when, when + window()].
//
// The hook must be installed on an empty simulator (before any Schedule
// call). With no hook installed the engine below is untouched — the
// production calendar-queue path runs and (when, seq) replay stays
// bit-identical. With a hook that always picks index 0 the execution order
// is also bit-identical (index 0 is the least (when, seq) entry), which is
// the identity-schedule property obs_determinism_test pins down.

// One concurrently-enabled event, exposed to ScheduleHook::Pick. Entries
// arrive sorted by (when, seq); seq is the global scheduling sequence
// number, so a hook can recognize FIFO order among ties.
struct EnabledEvent {
  TimePoint when = 0;
  uint64_t seq = 0;
};

class ScheduleHook {
 public:
  virtual ~ScheduleHook() = default;

  // Width of the enabled window beyond the earliest pending timestamp.
  // 0 restricts reordering to same-timestamp ties.
  virtual Duration window() const = 0;

  // Picks the event to fire next from `enabled` (size >= 1, sorted by
  // (when, seq)). Out-of-range returns fall back to index 0. Called exactly
  // once per fired event, so implementations may count invocations to
  // address decisions by step index.
  virtual size_t Pick(const std::vector<EnabledEvent>& enabled) = 0;
};

namespace internal {

// A pooled, type-erased event callable. It lives in `storage` (or, for
// oversized captures, on the heap with its pointer in `storage`). `op`
// invokes and/or destroys it; `next` links the pool freelist.
struct EventRecord {
  static constexpr size_t kInlineBytes = 64;

  EventRecord* next;
  void (*op)(EventRecord*, bool run);
  alignas(std::max_align_t) unsigned char storage[kInlineBytes];
};

// Ordering handle for a scheduled event. Kept separate from the record so
// comparison-heavy paths (slot sorts, the overflow heap, the ring/timer
// merge) never dereference the records themselves.
struct EventRef {
  TimePoint when;
  uint64_t seq;
  EventRecord* rec;
};

inline bool EarlierThan(const EventRef& a, const EventRef& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

template <typename F>
void InlineThunk(EventRecord* e, bool run) {
  F* f = std::launder(reinterpret_cast<F*>(e->storage));
  if (run) (*f)();
  if constexpr (!std::is_trivially_destructible_v<F>) f->~F();
}

template <typename F>
void HeapThunk(EventRecord* e, bool run) {
  F* f;
  std::memcpy(&f, e->storage, sizeof(f));
  if (run) (*f)();
  delete f;
}

// Slab allocator for EventRecords: blocks of 512, freelist-linked. Records
// are never returned to the OS until the Simulator dies, so steady-state
// scheduling performs zero heap allocations.
class EventPool {
 public:
  EventRecord* Alloc() {
    if (free_ == nullptr) Grow();
    EventRecord* e = free_;
    free_ = e->next;
    return e;
  }

  void Free(EventRecord* e) {
    e->next = free_;
    free_ = e;
  }

  size_t blocks() const { return blocks_.size(); }

 private:
  static constexpr size_t kBlockSize = 512;

  void Grow() {
    blocks_.emplace_back(new EventRecord[kBlockSize]);
    EventRecord* block = blocks_.back().get();
    for (size_t i = 0; i < kBlockSize; ++i) {
      block[i].next = (i + 1 < kBlockSize) ? &block[i + 1] : nullptr;
    }
    free_ = block;
  }

  std::vector<std::unique_ptr<EventRecord[]>> blocks_;
  EventRecord* free_ = nullptr;
};

// Growable power-of-two ring buffer of EventRefs: the zero-delay FIFO lane.
class EventRing {
 public:
  bool empty() const { return head_ == tail_; }
  size_t size() const { return tail_ - head_; }

  void Push(const EventRef& e) {
    if (tail_ - head_ == buf_.size()) Grow();
    buf_[tail_++ & mask_] = e;
  }

  const EventRef& Front() const { return buf_[head_ & mask_]; }
  void Pop() { ++head_; }

 private:
  void Grow() {
    const size_t old_cap = buf_.size();
    const size_t new_cap = old_cap == 0 ? 256 : old_cap * 2;
    std::vector<EventRef> grown(new_cap);
    for (size_t i = 0; i < old_cap; ++i) {
      grown[i] = buf_[(head_ + i) & mask_];
    }
    buf_ = std::move(grown);
    head_ = 0;
    tail_ = old_cap;
    mask_ = new_cap - 1;
  }

  std::vector<EventRef> buf_;
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t mask_ = 0;
};

}  // namespace internal

class Simulator {
 public:
  // Engine instrumentation, exposed for benches and allocation tests.
  struct Stats {
    uint64_t zero_delay_events = 0;  // took the FIFO ring lane
    uint64_t timer_events = 0;       // landed in the timing wheel
    uint64_t overflow_events = 0;    // beyond the wheel horizon at insert
    uint64_t heap_callables = 0;     // capture too big for inline storage
    uint64_t pool_blocks = 0;        // event-record slabs allocated
  };

  // Each live Simulator keeps its thread's coroutine-frame cache enabled;
  // the last one to go drains it (frame_cache.h).
  Simulator() { internal::FrameCache::OnSimulatorCreated(); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  ~Simulator() {
    // Dispose (without running) every pending callable.
    for (const internal::EventRef& e : hooked_) DisposeOnly(e);
    while (!ring_.empty()) {
      DisposeOnly(ring_.Front());
      ring_.Pop();
    }
    for (size_t i = due_idx_; i < due_.size(); ++i) DisposeOnly(due_[i]);
    if (wheel_ != nullptr) {
      for (size_t s = 0; s < kSlots; ++s) {
        for (const internal::EventRef& e : wheel_->slot[s]) DisposeOnly(e);
      }
    }
    for (const internal::EventRef& e : overflow_) DisposeOnly(e);
    internal::FrameCache::OnSimulatorDestroyed();
  }

  TimePoint Now() const { return now_; }

  // Installs (or clears, with nullptr) the exploration hook. Only legal on
  // an empty simulator: the hooked lane and the production lanes never hold
  // events at the same time.
  void SetScheduleHook(ScheduleHook* hook) {
    PRISM_CHECK_EQ(pending_, size_t{0})
        << "ScheduleHook must be installed before any event is scheduled";
    hook_ = hook;
  }

  ScheduleHook* schedule_hook() const { return hook_; }

  // Schedules `fn` to run at Now() + delay. delay may be zero; FIFO order
  // among equal timestamps is guaranteed. Accepts any callable, including
  // move-only ones; it is move-constructed into pooled inline storage.
  template <typename F>
  void Schedule(Duration delay, F&& fn) {
    PRISM_CHECK_GE(delay, 0);
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  template <typename F>
  void ScheduleAt(TimePoint when, F&& fn) {
    PRISM_CHECK_GE(when, now_);
    internal::EventRecord* rec = pool_.Alloc();
    Bind(rec, std::forward<F>(fn));
    const internal::EventRef e{when, next_seq_++, rec};
    ++pending_;
    if (hook_ != nullptr) {
      // Exploration lane: one sorted vector, kept ordered by (when, seq) at
      // insert. Engine stats are not maintained here — perturbed runs are
      // not comparable to production lane counts anyway.
      hooked_.insert(std::upper_bound(hooked_.begin(), hooked_.end(), e,
                                      internal::EarlierThan),
                     e);
      return;
    }
    if (when == now_) {
      ++stats_.zero_delay_events;
      ring_.Push(e);
    } else {
      if (SlotOf(when) > opened_slot_ + kSlots) {
        ++stats_.overflow_events;
      } else {
        ++stats_.timer_events;
      }
      InsertTimer(e);
    }
  }

  // Resumes a coroutine handle at Now() + delay via the event queue. All
  // wakeups in the framework funnel through here so resumption never nests
  // inside another frame (bounded stack depth, strict FIFO fairness).
  void Resume(std::coroutine_handle<> h, Duration delay = 0) {
    Schedule(delay, ResumeEvent{h});
  }

  // Runs until the event queue is empty.
  void Run() {
    while (Step()) {
    }
  }

  // Runs events with timestamp <= deadline; leaves Now() == deadline if the
  // queue drained or the next event is later.
  void RunUntil(TimePoint deadline) {
    if (hook_ != nullptr) {
      while (StepHooked(&deadline)) {
      }
      if (now_ < deadline) now_ = deadline;
      return;
    }
    for (;;) {
      const internal::EventRef* e = PeekNext();
      if (e == nullptr || e->when > deadline) break;
      PopAndFire(*e);
    }
    if (now_ < deadline) now_ = deadline;
  }

  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Executes the next event. Returns false if the queue is empty.
  bool Step() {
    if (hook_ != nullptr) return StepHooked(nullptr);
    const internal::EventRef* e = PeekNext();
    if (e == nullptr) return false;
    PopAndFire(*e);
    return true;
  }

  bool idle() const { return pending_ == 0; }
  size_t pending_events() const { return pending_; }
  uint64_t executed_events() const { return next_seq_ - pending_; }

  const Stats& stats() const {
    stats_.pool_blocks = pool_.blocks();
    return stats_;
  }

 private:
  struct ResumeEvent {
    std::coroutine_handle<> h;
    void operator()() const { h.resume(); }
  };

  // ---- exploration lane (ScheduleHook installed) ----
  //
  // Fires one event chosen by the hook from the enabled window. `deadline`
  // (when non-null) restricts the window to events at or before it, so
  // RunUntil keeps its contract under exploration. The chosen event fires
  // at max(now_, e.when): picking a later enabled event first *delays* the
  // earlier ones, modelling delivery jitter bounded by the hook's window.
  bool StepHooked(const TimePoint* deadline) {
    if (hooked_.empty()) return false;
    if (deadline != nullptr && hooked_.front().when > *deadline) return false;
    TimePoint cutoff = hooked_.front().when + hook_->window();
    if (deadline != nullptr && cutoff > *deadline) cutoff = *deadline;
    size_t n = 1;
    while (n < hooked_.size() && hooked_[n].when <= cutoff) ++n;
    enabled_scratch_.clear();
    for (size_t i = 0; i < n; ++i) {
      enabled_scratch_.push_back({hooked_[i].when, hooked_[i].seq});
    }
    size_t pick = hook_->Pick(enabled_scratch_);
    if (pick >= n) pick = 0;
    const internal::EventRef e = hooked_[pick];
    hooked_.erase(hooked_.begin() + static_cast<ptrdiff_t>(pick));
    --pending_;
    if (e.when > now_) now_ = e.when;
    e.rec->op(e.rec, /*run=*/true);
    pool_.Free(e.rec);
    return true;
  }

  // ---- callable binding ----

  template <typename F>
  void Bind(internal::EventRecord* e, F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= internal::EventRecord::kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(e->storage)) D(std::forward<F>(fn));
      e->op = &internal::InlineThunk<D>;
    } else {
      D* heap = new D(std::forward<F>(fn));
      std::memcpy(e->storage, &heap, sizeof(heap));
      e->op = &internal::HeapThunk<D>;
      ++stats_.heap_callables;
    }
  }

  static void DisposeOnly(const internal::EventRef& e) {
    e.rec->op(e.rec, /*run=*/false);
  }

  // ---- calendar queue (timing wheel + overflow heap) ----

  static constexpr int kSlotShift = 8;    // 256 ns per slot
  static constexpr size_t kSlots = 1024;  // ~262 µs horizon
  static constexpr uint64_t kSlotMask = kSlots - 1;

  struct Wheel {
    std::vector<internal::EventRef> slot[kSlots];
    uint64_t bitmap[kSlots / 64] = {};
    uint64_t count = 0;
  };

  static uint64_t SlotOf(TimePoint when) {
    return static_cast<uint64_t>(when) >> kSlotShift;
  }

  // Heap comparator: a "later than" order so the heap front is earliest.
  struct OverflowLater {
    bool operator()(const internal::EventRef& a,
                    const internal::EventRef& b) const {
      return internal::EarlierThan(b, a);
    }
  };

  void InsertTimer(const internal::EventRef& e) {
    const uint64_t slot = SlotOf(e.when);
    if (slot <= opened_slot_) {
      // Lands in (or before) the slot currently being drained: sorted-insert
      // into the due list. Everything at index < due_idx_ already fired and
      // has (when, seq) below the new event, so the search starts at due_idx_.
      due_.insert(std::upper_bound(due_.begin() + due_idx_, due_.end(), e,
                                   internal::EarlierThan),
                  e);
      return;
    }
    if (slot > opened_slot_ + kSlots) {
      overflow_.push_back(e);
      std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
      return;
    }
    if (wheel_ == nullptr) wheel_ = std::make_unique<Wheel>();
    const size_t idx = slot & kSlotMask;
    if (wheel_->slot[idx].empty()) {
      wheel_->bitmap[idx / 64] |= uint64_t{1} << (idx % 64);
    }
    wheel_->slot[idx].push_back(e);
    ++wheel_->count;
  }

  // Absolute slot of the next nonempty wheel slot after opened_slot_, or
  // UINT64_MAX when the wheel is empty. All live wheel slots lie in
  // (opened_slot_, opened_slot_ + kSlots], so each wheel index maps back to
  // a unique absolute slot in that window.
  uint64_t NextWheelSlot() const {
    if (wheel_ == nullptr || wheel_->count == 0) return UINT64_MAX;
    constexpr size_t kWords = kSlots / 64;
    const uint64_t start = (opened_slot_ + 1) & kSlotMask;
    // Circular first-set-bit scan from `start`: the first hit in circular
    // order is the nearest future slot. The final iteration revisits the
    // starting word for the wrapped-around low bits.
    for (size_t k = 0; k <= kWords; ++k) {
      const size_t w = (start / 64 + k) % kWords;
      uint64_t bits = wheel_->bitmap[w];
      if (k == 0) {
        bits &= ~uint64_t{0} << (start % 64);
      } else if (k == kWords) {
        bits &= (start % 64 == 0) ? 0 : (uint64_t{1} << (start % 64)) - 1;
      }
      if (bits == 0) continue;
      const uint64_t idx =
          w * 64 + static_cast<uint64_t>(__builtin_ctzll(bits));
      return opened_slot_ + 1 + ((idx - start) & kSlotMask);
    }
    return UINT64_MAX;
  }

  // Moves the contents of absolute slot `slot` into due_ (sorted), advances
  // opened_slot_, and migrates overflow timers that the new horizon covers.
  void OpenSlot(uint64_t slot) {
    opened_slot_ = slot;
    if (due_idx_ == due_.size()) {
      due_.clear();
      due_idx_ = 0;
    }
    if (wheel_ != nullptr) {
      const size_t idx = slot & kSlotMask;
      std::vector<internal::EventRef>& sv = wheel_->slot[idx];
      if (!sv.empty()) {
        SortSlotIntoDue(sv);
        wheel_->count -= sv.size();
        sv.clear();
        wheel_->bitmap[idx / 64] &= ~(uint64_t{1} << (idx % 64));
      }
    }
    // Pull far-future timers that the advanced horizon now covers. They
    // re-enter through InsertTimer, which routes them to their wheel slot
    // (or sorted into due_ when they belong to the slot just opened).
    while (!overflow_.empty() &&
           SlotOf(overflow_.front().when) <= slot + kSlots) {
      std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
      const internal::EventRef e = overflow_.back();
      overflow_.pop_back();
      InsertTimer(e);
    }
  }

  // Appends the contents of a wheel slot to due_ in (when, seq) order.
  //
  // Entries in a slot vector share the high bits of `when` (same slot), and
  // equal-`when` entries already sit in seq order: appends during normal
  // scheduling carry monotonically increasing seq, and overflow migration —
  // the only other producer — always completes for a slot before the slot
  // re-admits direct inserts (InsertTimer routes to the wheel only when the
  // slot is inside the horizon, and OpenSlot drains overflow up to the new
  // horizon before returning). A stable counting sort on the low kSlotShift
  // bits of `when` therefore yields the full (when, seq) order with two
  // linear passes and zero comparisons.
  void SortSlotIntoDue(const std::vector<internal::EventRef>& sv) {
    const size_t base = due_.size();
    constexpr size_t kWidth = size_t{1} << kSlotShift;
    if (sv.size() < 32) {
      due_.insert(due_.end(), sv.begin(), sv.end());
      std::sort(due_.begin() + base, due_.end(), internal::EarlierThan);
      return;
    }
    uint32_t start[kWidth + 1] = {};
    for (const internal::EventRef& e : sv) {
      ++start[(static_cast<uint64_t>(e.when) & (kWidth - 1)) + 1];
    }
    for (size_t i = 1; i <= kWidth; ++i) start[i] += start[i - 1];
    due_.resize(base + sv.size());
    for (const internal::EventRef& e : sv) {
      due_[base + start[static_cast<uint64_t>(e.when) & (kWidth - 1)]++] = e;
    }
  }

  // Earliest pending timer event, or nullptr. Primes due_ so a subsequent
  // PopTimer() is O(1).
  const internal::EventRef* PeekTimer() {
    if (due_idx_ < due_.size()) return &due_[due_idx_];
    const uint64_t ws = NextWheelSlot();
    if (ws != UINT64_MAX) {
      // Wheel timers always precede overflow timers: wheel slots are within
      // the horizon, overflow slots beyond it.
      OpenSlot(ws);
      return &due_[due_idx_];
    }
    if (!overflow_.empty()) {
      OpenSlot(SlotOf(overflow_.front().when));
      return &due_[due_idx_];
    }
    return nullptr;
  }

  // ---- merged pop across the ring lane and the calendar queue ----

  const internal::EventRef* PeekNext() {
    const internal::EventRef* timer = PeekTimer();
    if (ring_.empty()) return timer;
    const internal::EventRef* front = &ring_.Front();
    if (timer != nullptr && internal::EarlierThan(*timer, *front)) {
      return timer;
    }
    return front;
  }

  // `e` must be a copy of the ref PeekNext() just returned (firing the
  // callable can grow due_/ring_ and invalidate the pointer).
  void PopAndFire(internal::EventRef e) {
    if (!ring_.empty() && ring_.Front().rec == e.rec) {
      ring_.Pop();
    } else {
      ++due_idx_;
    }
    --pending_;
    PRISM_CHECK_GE(e.when, now_);
    now_ = e.when;
    // Hide the cold-record miss of the *next* event behind this callable.
    if (due_idx_ < due_.size()) __builtin_prefetch(due_[due_idx_].rec);
    if (!ring_.empty()) __builtin_prefetch(ring_.Front().rec);
    e.rec->op(e.rec, /*run=*/true);
    pool_.Free(e.rec);
  }

  TimePoint now_ = 0;
  uint64_t next_seq_ = 0;
  size_t pending_ = 0;
  mutable Stats stats_;

  internal::EventPool pool_;
  internal::EventRing ring_;

  // Exploration lane (empty unless a ScheduleHook is installed): every
  // pending event, sorted by (when, seq).
  ScheduleHook* hook_ = nullptr;
  std::vector<internal::EventRef> hooked_;
  std::vector<EnabledEvent> enabled_scratch_;

  // Calendar queue state. due_ holds every pending timer with slot <=
  // opened_slot_, sorted by (when, seq); due_idx_ is the consumed prefix.
  std::vector<internal::EventRef> due_;
  size_t due_idx_ = 0;
  uint64_t opened_slot_ = 0;
  std::unique_ptr<Wheel> wheel_;
  std::vector<internal::EventRef> overflow_;  // min-heap by (when, seq)
};

}  // namespace prism::sim

#endif  // PRISM_SRC_SIM_SIMULATOR_H_
