// One fixed timeout shared by many in-flight ops.
//
// Every verb, PRISM chain, RPC call and QP SEND waits at most the same
// timeout for its answer, so their deadlines are armed in non-decreasing
// order and a FIFO keeps them sorted. DeadlineQueue holds that FIFO and
// keeps at most one engine event pending for it, at (or before) the
// earliest live deadline; an op that finishes in time cancels its entry in
// O(1) and costs the engine nothing.
//
//  * Expiry timing is exact: a deadline armed at t with delay δ expires at
//    t + δ + timeout, and deadlines that expire at the same instant run in
//    arm order.
//  * The queue owns nothing. An op embeds a Deadline in its own state; the
//    queue refers to it by pointer, and destroying an armed Deadline cancels
//    it, so a cancelled or destroyed op never sees its expiry callback.
//  * Destroying the queue detaches every still-armed Deadline. Its pending
//    timer event refers to the queue, so like the fabric that owns it, the
//    queue must outlive any further run of the simulator.
//  * Cancelled entries at the head are popped eagerly, so the FIFO stays as
//    short as the oldest op still in flight allows.
#ifndef PRISM_SRC_SIM_DEADLINE_H_
#define PRISM_SRC_SIM_DEADLINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/simulator.h"

namespace prism::sim {

class DeadlineQueue;

// An armable deadline embedded in an op's state. `on_expire(ctx)` runs if
// the deadline passes while armed.
class Deadline {
 public:
  using ExpireFn = void (*)(void* ctx);

  Deadline(ExpireFn on_expire, void* ctx) : on_expire_(on_expire), ctx_(ctx) {}
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;
  ~Deadline() { Cancel(); }

  bool armed() const { return queue_ != nullptr; }

  // Disarms the deadline; a no-op when it is not armed (never armed,
  // already cancelled, or already expired).
  inline void Cancel();

 private:
  friend class DeadlineQueue;
  ExpireFn on_expire_;
  void* ctx_;
  DeadlineQueue* queue_ = nullptr;
  uint64_t ticket_ = 0;  // absolute FIFO position while armed
};

class DeadlineQueue {
 public:
  DeadlineQueue(Simulator* sim, Duration timeout)
      : sim_(sim), timeout_(timeout) {
    PRISM_CHECK_GT(timeout, 0);
  }
  DeadlineQueue(const DeadlineQueue&) = delete;
  DeadlineQueue& operator=(const DeadlineQueue&) = delete;

  ~DeadlineQueue() {
    for (uint64_t t = head_; t != tail_; ++t) {
      if (Deadline* d = At(t).deadline) d->queue_ = nullptr;
    }
  }

  // Deadlines currently armed.
  size_t armed() const { return armed_; }

  // Arms `d` to expire one timeout after Now() + `delay`. Expiry instants
  // must be armed in non-decreasing order, so every arm on one queue uses
  // the same delay (an op whose request leaves `delay` after it is issued
  // arms on a queue of its own).
  void Arm(Deadline* d, Duration delay = 0) {
    PRISM_CHECK(!d->armed()) << "deadline armed twice";
    const TimePoint when = sim_->Now() + delay + timeout_;
    PRISM_CHECK(head_ == tail_ || At(tail_ - 1).when <= when)
        << "deadlines armed out of expiry order";
    if (tail_ - head_ == buf_.size()) Grow();
    d->queue_ = this;
    d->ticket_ = tail_;
    At(tail_++) = Entry{when, d};
    ++armed_;
    if (!timer_pending_) ScheduleTimer(when);
  }

 private:
  friend class Deadline;

  struct Entry {
    TimePoint when;
    Deadline* deadline;  // null once cancelled
  };

  Entry& At(uint64_t ticket) { return buf_[ticket & mask_]; }

  void Cancel(Deadline* d) {
    At(d->ticket_).deadline = nullptr;
    d->queue_ = nullptr;
    --armed_;
    while (head_ != tail_ && At(head_).deadline == nullptr) ++head_;
  }

  void ScheduleTimer(TimePoint when) {
    timer_pending_ = true;
    sim_->ScheduleAt(when, [this] { Fire(); });
  }

  // The timer event: expires every entry that is due, in arm order, then
  // re-arms the timer for the earliest entry left. timer_pending_ stays set
  // while callbacks run so an Arm from inside one cannot add a second event.
  void Fire() {
    const TimePoint now = sim_->Now();
    while (head_ != tail_ && At(head_).when <= now) {
      Deadline* d = At(head_++).deadline;
      if (d == nullptr) continue;
      d->queue_ = nullptr;
      --armed_;
      d->on_expire_(d->ctx_);
    }
    while (head_ != tail_ && At(head_).deadline == nullptr) ++head_;
    timer_pending_ = false;
    if (head_ != tail_) ScheduleTimer(At(head_).when);
  }

  // Doubles the ring, keeping every entry at its absolute ticket.
  void Grow() {
    const size_t cap = buf_.empty() ? 64 : buf_.size() * 2;
    std::vector<Entry> grown(cap);
    for (uint64_t t = head_; t != tail_; ++t) grown[t & (cap - 1)] = At(t);
    buf_ = std::move(grown);
    mask_ = cap - 1;
  }

  Simulator* sim_;
  Duration timeout_;
  std::vector<Entry> buf_;  // power-of-two ring indexed by ticket
  uint64_t mask_ = 0;
  uint64_t head_ = 0;  // oldest entry not yet popped
  uint64_t tail_ = 0;  // next ticket
  size_t armed_ = 0;
  bool timer_pending_ = false;
};

inline void Deadline::Cancel() {
  if (queue_ != nullptr) queue_->Cancel(this);
}

}  // namespace prism::sim

#endif  // PRISM_SRC_SIM_DEADLINE_H_
