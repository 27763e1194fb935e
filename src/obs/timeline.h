// Per-op phase timeline: where did each operation's latency go?
//
// The span tracer (trace.h) answers "what happened when" for a handful of
// traced ops; figures need the complementary aggregate answer — "p99 = X µs,
// of which Y µs is queueing" — for *every* measured op. OpTimeline carries a
// fixed seven-phase decomposition of one operation's arrival-to-completion
// interval; TimelineStore aggregates finished timelines into per-phase
// histograms per client class, retains the slowest-K ops per class as
// exemplars (full span tree pinned at capture), and feeds a windowed
// time-series (timeseries.h).
//
// Phase machine — telescoping sum by construction:
//
//   Switch(p, now):  phase_ns[cur] += now - last;  last = now;  cur = p
//   Finish(now):     phase_ns[cur] += now - last;  end = now    (then done)
//
// Every nanosecond between Start and Finish lands in exactly one phase no
// matter which Switch calls fire, so sum(phase_ns) == end - start *exactly*
// (property-checked in tests/phase_invariant_test.cc). A stale stamp (e.g. a
// retransmit timer firing after the op already finished by timeout) is a
// no-op thanks to the done flag; misattribution between phases under
// concurrency is possible in principle but the total never drifts.
//
// Propagation uses obs::Hub's current-op register with the same discipline
// as the current-span register (obs.h): armed immediately before a
// synchronous handoff, captured at the receiving entry, never trusted across
// a suspension point. Unlike the span register it is unconditional (a bare
// pointer write), so arming it costs nothing when no store is attached.
//
// Determinism: pure recording. Nothing here schedules an event or perturbs
// the (when,seq) replay; timelines are deque-owned (stable addresses) and
// never recycled mid-run, so a late stale pointer can only hit its own
// finished (inert) timeline.
#ifndef PRISM_SRC_OBS_TIMELINE_H_
#define PRISM_SRC_OBS_TIMELINE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/phase.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace prism::obs {

class OpTimeline {
 public:
  // Begins the timeline at `now_ns` in kBacklogWait (an open-loop op is
  // born into the backlog; closed-loop callers Switch immediately).
  void Start(uint32_t cls, int64_t now_ns) {
    cls_ = cls;
    start_ns_ = last_ns_ = now_ns;
    cur_ = Phase::kBacklogWait;
    started_ = true;
  }

  OpTimeline() = default;
  OpTimeline(const OpTimeline&) = delete;
  OpTimeline& operator=(const OpTimeline&) = delete;
  ~OpTimeline() { delete[] spill_; }

  // Attributes [last stamp, now) to the current phase, then enters `p`.
  // Stamps registered with SwitchAt for instants up to `now_ns` are applied
  // first. No-op before Start or after Finish.
  void Switch(Phase p, int64_t now_ns) {
    if (!started_ || done_) return;
    ApplyDue(now_ns);
    Enter(p, now_ns);
  }

  // Registers a switch to `p` at `when_ns`, an instant no earlier than the
  // latest stamp that may lie in the future: a send that folds the client's
  // post or completion cost into its hop knows when the frame leaves and
  // arrives before any event marks those instants. It is applied, in time
  // order (ties in registration order), by the first Switch or Finish at or
  // after `when_ns`; one still pending at Finish is dropped, as a stamp
  // landing after Finish would be.
  void SwitchAt(Phase p, int64_t when_ns) {
    if (!started_ || done_) return;
    if (n_due_ == due_capacity()) GrowDue();
    due()[n_due_++] = Due{when_ns, p};
  }

  // Closes the timeline; later Switch/Finish calls are inert.
  void Finish(int64_t now_ns) {
    if (!started_ || done_) return;
    ApplyDue(now_ns);
    n_due_ = 0;
    phase_ns_[static_cast<int>(cur_)] += now_ns - last_ns_;
    end_ns_ = now_ns;
    done_ = true;
  }

  bool started() const { return started_; }
  bool done() const { return done_; }
  uint32_t cls() const { return cls_; }
  int64_t start_ns() const { return start_ns_; }
  int64_t end_ns() const { return end_ns_; }
  int64_t total_ns() const { return end_ns_ - start_ns_; }
  int64_t phase_ns(int i) const { return phase_ns_[i]; }
  int64_t phase_ns(Phase p) const { return phase_ns_[static_cast<int>(p)]; }
  uint32_t retransmits() const { return retransmits_; }

  // Root span of the traced causal chain (0 when untraced); lets the
  // exemplar store pin the span tree of a slow op.
  SpanId root_span() const { return root_span_; }
  void set_root_span(SpanId s) { root_span_ = s; }

 private:
  struct Due {
    int64_t when_ns;
    Phase phase;
  };
  // Pending stamps live inline; an op with more exchanges in flight than
  // that spills them to the heap.
  static constexpr uint32_t kInlineDue = 4;

  void Enter(Phase p, int64_t now_ns) {
    phase_ns_[static_cast<int>(cur_)] += now_ns - last_ns_;
    last_ns_ = now_ns;
    if (p == Phase::kRetransmit && cur_ != Phase::kRetransmit) retransmits_++;
    cur_ = p;
  }

  // Applies every pending stamp due by `now_ns`, earliest first.
  void ApplyDue(int64_t now_ns) {
    while (n_due_ > 0) {
      Due* d = due();
      uint32_t next = 0;
      for (uint32_t i = 1; i < n_due_; ++i) {
        if (d[i].when_ns < d[next].when_ns) next = i;
      }
      if (d[next].when_ns > now_ns) return;
      const Due stamp = d[next];
      for (uint32_t i = next + 1; i < n_due_; ++i) d[i - 1] = d[i];
      --n_due_;
      Enter(stamp.phase, stamp.when_ns);
    }
  }

  Due* due() { return spill_ != nullptr ? spill_ : inline_due_; }
  uint32_t due_capacity() const {
    return spill_ != nullptr ? spill_capacity_ : kInlineDue;
  }
  void GrowDue() {
    const uint32_t cap = due_capacity() * 2;
    Due* grown = new Due[cap];
    for (uint32_t i = 0; i < n_due_; ++i) grown[i] = due()[i];
    delete[] spill_;
    spill_ = grown;
    spill_capacity_ = cap;
  }

  int64_t phase_ns_[kNumPhases] = {0, 0, 0, 0, 0, 0, 0};
  int64_t start_ns_ = 0;
  int64_t last_ns_ = 0;
  int64_t end_ns_ = -1;
  SpanId root_span_ = 0;
  uint32_t cls_ = 0;
  uint32_t retransmits_ = 0;
  Phase cur_ = Phase::kBacklogWait;
  bool started_ = false;
  bool done_ = false;
  uint32_t n_due_ = 0;
  uint32_t spill_capacity_ = 0;
  Due inline_due_[kInlineDue];
  Due* spill_ = nullptr;
};

// Null-safe phase switch: the stamping idiom at every handoff point.
inline void SwitchOp(OpTimeline* op, Phase p, int64_t now_ns) {
  if (op != nullptr) op->Switch(p, now_ns);
}

// Null-safe SwitchAt, for an instant known ahead of its event.
inline void SwitchOpAt(OpTimeline* op, Phase p, int64_t when_ns) {
  if (op != nullptr) op->SwitchAt(p, when_ns);
}

// Owns every OpTimeline of one simulation run and aggregates the finished
// ones. One store per sweep point (same slot discipline as PointObs), so
// parallel sweeps stay data-race-free.
class TimelineStore {
 public:
  struct Options {
    int64_t bucket_ns = 50'000;  // time-series bucket width
    size_t top_k = 4;            // exemplars retained per class
  };

  TimelineStore();  // default Options
  explicit TimelineStore(Options opt);

  // Optional: lets FinishOp pin span trees for exemplars. The pinned copies
  // are immune to the tracer's FIFO eviction (ISSUE 9 satellite 1).
  void SetTracer(const Tracer* t) { tracer_ = t; }

  // Measurement window: only ops with arrival >= start and completion <= end
  // are aggregated (mirrors workload::Recorder's predicate exactly, so the
  // per-class total histogram matches the figure's latency column).
  void SetWindow(int64_t start_ns, int64_t end_ns) {
    win_start_ = start_ns;
    win_end_ = end_ns;
  }

  // Registers (or finds) a client class; returns its index.
  uint32_t EnsureClass(std::string_view name);

  // Creates a timeline starting at `now_ns`. The pointer is stable for the
  // lifetime of the store and is never recycled.
  OpTimeline* StartOp(uint32_t cls, int64_t now_ns);

  // Finishes `t` and, if it falls inside the measurement window, folds it
  // into the per-class per-phase histograms, the exemplar reservoir, and the
  // time-series. Null-safe.
  void FinishOp(OpTimeline* t, int64_t now_ns);

  // A slow-op exemplar: phase breakdown plus the span tree pinned at the
  // moment of capture (deterministic ordering: total_ns desc, then
  // (end_ns, seq) asc — the (when, seq) tie-break of the op's completion).
  struct Exemplar {
    uint64_t seq = 0;  // finish order within the measurement window
    uint32_t cls = 0;
    uint32_t retransmits = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t phase_ns[kNumPhases] = {0, 0, 0, 0, 0, 0, 0};
    SpanId root_span = 0;
    std::vector<SpanRecord> spans;  // pinned copy; empty when untraced
    int64_t total_ns() const { return end_ns - start_ns; }
  };

  size_t n_classes() const { return classes_.size(); }
  const std::string& class_name(size_t cls) const {
    return classes_[cls].name;
  }
  const LatencyHistogram& total_hist(size_t cls) const {
    return classes_[cls].total;
  }
  const LatencyHistogram& phase_hist(size_t cls, int phase) const {
    return classes_[cls].phase[phase];
  }
  // Exact integer sum of a phase across the class's measured ops (the
  // histograms are log-bucketed; shares computed from these never drift).
  int64_t phase_total_ns(size_t cls, int phase) const {
    return classes_[cls].phase_total_ns[phase];
  }
  // Sorted slowest-first with the deterministic tie-break above.
  const std::vector<Exemplar>& exemplars(size_t cls) const {
    return classes_[cls].exemplars;
  }

  // Every timeline created this run, in StartOp order (finished or not).
  // Property tests iterate these to check the telescoping-sum invariant
  // against the aggregates.
  const std::deque<OpTimeline>& timelines() const { return pool_; }

  TimeSeries& series() { return ts_; }
  const TimeSeries& series() const { return ts_; }

  uint64_t started_ops() const { return started_ops_; }
  uint64_t measured_ops() const { return measured_ops_; }

 private:
  struct ClassAgg {
    std::string name;
    LatencyHistogram total;
    LatencyHistogram phase[kNumPhases];
    int64_t phase_total_ns[kNumPhases] = {0, 0, 0, 0, 0, 0, 0};
    std::vector<Exemplar> exemplars;  // kept sorted, size <= top_k
  };

  Options opt_;
  const Tracer* tracer_ = nullptr;
  int64_t win_start_ = 0;
  int64_t win_end_ = INT64_MAX;
  std::deque<OpTimeline> pool_;  // stable addresses
  std::vector<ClassAgg> classes_;
  TimeSeries ts_;
  uint64_t started_ops_ = 0;
  uint64_t measured_ops_ = 0;
};

}  // namespace prism::obs

#endif  // PRISM_SRC_OBS_TIMELINE_H_
