// Client-side operation histories for correctness checking.
//
// Applications record one entry per client-visible operation — invocation
// time, response time, and outcome — while a chaos schedule injects faults
// underneath them. The checkers (checker.h) then decide offline whether the
// recorded history is explainable by the implementation's contract:
// linearizable register semantics for PRISM-RS blocks and PRISM-KV keys,
// read-committed semantics for PRISM-TX.
//
// Values are recorded as 64-bit fingerprints (ValueId) rather than byte
// strings: tests write globally unique values, so fingerprint equality is
// value equality for checking purposes.
#ifndef PRISM_SRC_CHECK_HISTORY_H_
#define PRISM_SRC_CHECK_HISTORY_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/sim/simulator.h"

namespace prism::check {

// Fingerprint of a stored value. kAbsent is "no value": a key that was never
// written, was deleted, or a zero-length read.
using ValueId = uint64_t;
inline constexpr ValueId kAbsent = 0;

// Fingerprints never collide with kAbsent. Two values that differ in one
// 8-byte word never share a fingerprint (see Fingerprint64).
inline ValueId IdOf(ByteView bytes) {
  const uint64_t h = Fingerprint64(bytes);
  return h == kAbsent ? 1 : h;
}

enum class OpType { kRead, kWrite };

enum class Outcome {
  kOk,             // the operation completed and took effect exactly once
  kFailed,         // the operation definitely did NOT take effect
  kIndeterminate,  // unknown: it may have taken effect (e.g. timed out
                   // mid-install) — the checker may place it anywhere after
                   // its invocation, or drop it entirely
};

struct Op {
  int client = 0;
  uint64_t key = 0;
  OpType type = OpType::kRead;
  ValueId value = kAbsent;  // write: value written; read: value observed
  sim::TimePoint invoke = 0;
  sim::TimePoint response = 0;
  Outcome outcome = Outcome::kIndeterminate;
  bool done = false;  // response recorded (ops cut off mid-run stay open)
};

// Records register-style operations (PRISM-RS blocks, PRISM-KV keys).
// Begin() stamps the invocation; End() stamps the response. Operations that
// never reach End() are treated as indeterminate with an infinite response
// time.
class HistoryRecorder {
 public:
  explicit HistoryRecorder(sim::Simulator* sim) : sim_(sim) {}

  size_t Begin(int client, uint64_t key, OpType type,
               ValueId written = kAbsent) {
    Op op;
    op.client = client;
    op.key = key;
    op.type = type;
    op.value = written;
    op.invoke = sim_->Now();
    ops_.push_back(op);
    return ops_.size() - 1;
  }

  void End(size_t id, Outcome outcome, ValueId observed = kAbsent) {
    Op& op = ops_[id];
    op.response = sim_->Now();
    op.outcome = outcome;
    op.done = true;
    if (op.type == OpType::kRead) op.value = observed;
  }

  // Ends the op re-typed as a read: a DELETE that found nothing did not
  // write — it *observed* the key's absence.
  void EndAsRead(size_t id, Outcome outcome, ValueId observed) {
    ops_[id].type = OpType::kRead;
    End(id, outcome, observed);
  }

  const std::vector<Op>& ops() const { return ops_; }
  size_t size() const { return ops_.size(); }

 private:
  sim::Simulator* sim_;
  std::vector<Op> ops_;
};

// ---- transactions (PRISM-TX) ----

enum class TxOutcome {
  kCommitted,      // all writes installed
  kAborted,        // validation failed: no write installed
  kIndeterminate,  // commit-phase failure: writes may be partially installed
};

struct TxnRecord {
  int client = 0;
  std::vector<std::pair<uint64_t, ValueId>> reads;   // (key, value observed)
  std::vector<std::pair<uint64_t, ValueId>> writes;  // (key, value written)
  TxOutcome outcome = TxOutcome::kIndeterminate;
  sim::TimePoint begin = 0;
  sim::TimePoint end = 0;
  bool done = false;
};

class TxHistoryRecorder {
 public:
  explicit TxHistoryRecorder(sim::Simulator* sim) : sim_(sim) {}

  size_t BeginTxn(int client) {
    TxnRecord t;
    t.client = client;
    t.begin = sim_->Now();
    txns_.push_back(std::move(t));
    return txns_.size() - 1;
  }
  void RecordRead(size_t id, uint64_t key, ValueId value) {
    txns_[id].reads.emplace_back(key, value);
  }
  void RecordWrite(size_t id, uint64_t key, ValueId value) {
    txns_[id].writes.emplace_back(key, value);
  }
  void EndTxn(size_t id, TxOutcome outcome) {
    txns_[id].outcome = outcome;
    txns_[id].end = sim_->Now();
    txns_[id].done = true;
  }

  const std::vector<TxnRecord>& txns() const { return txns_; }

 private:
  sim::Simulator* sim_;
  std::vector<TxnRecord> txns_;
};

}  // namespace prism::check

#endif  // PRISM_SRC_CHECK_HISTORY_H_
