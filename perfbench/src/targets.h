// Systems under test: PRISM-KV, Pilaf, PRISM-RS, ABD-LOCK, PRISM-TX and
// FaRM, each built only through its layer's public API (servers' LoadKey,
// clients' Get/Put/Read/Write/Commit) and driven one op at a time by the
// open-loop pools in runner.cc.
//
// Every target records the ops it runs into a check:: history (PRISM-TX
// clients record their own transactions), with values unique per written op
// and loaded values distinct per key, and checks that history after the
// timed run.
// Values are 512 B whose 64 words all hold the same 64-bit id; a read that
// returns anything else (wrong size, mixed words) is a torn or corrupt
// value and fails the check.
#ifndef PERFBENCH_SRC_TARGETS_H_
#define PERFBENCH_SRC_TARGETS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/checker.h"
#include "src/common/bytes.h"
#include "src/net/fabric.h"
#include "src/obs/complexity.h"
#include "src/sim/task.h"

namespace perfbench {

enum class Side { kPrism, kBase };

enum class App { kKv, kRs, kTx };

// How an op ended. kAborted is an OCC abort: a definite answer from the
// transaction layer. kError is any other non-OK status.
enum class OpOutcome : uint8_t { kOk, kAborted, kError };

struct OpClassSpec {
  std::string name;
  double weight;
};

// Store shapes (the figure drivers' full-size stores, DESIGN.md §1).
inline constexpr uint64_t kValueSize = 512;
inline constexpr uint64_t kKvKeys = 65536;      // fig3/fig4
inline constexpr uint64_t kRsBlocks = 16384;    // fig6/fig7
inline constexpr int kRsReplicas = 3;
inline constexpr uint64_t kTxKeys = 32768;      // fig9/fig10
inline constexpr double kTxZipfTheta = 0.9;

// One system under test inside one simulation.
class Target {
 public:
  virtual ~Target() = default;

  // Op classes every client host's pool registers (name, weight).
  virtual std::vector<OpClassSpec> Classes() const = 0;
  // Sets the client hosts ops run on and finishes loading the store: the
  // replicated block stores have no bulk loader, so rs writes every block
  // once through client Puts here, running the simulation until they end.
  // Call once, before the first Execute.
  virtual void Prepare(std::vector<prism::net::HostId> hosts) = 0;
  // Runs one op of class `cls` on a client of client host `host`; `draw`
  // is the logical client's 64-bit key-space draw.
  virtual prism::sim::Task<OpOutcome> Execute(size_t cls, size_t host,
                                              uint64_t draw) = 0;
  // Transport tally summed over every client the target created.
  virtual prism::obs::TransportTally Tally() const = 0;
  // Ships batched reclamation notifications (no-op for baselines).
  virtual void FlushReclaim() = 0;
  // Checks the recorded history (linearizability for kv/rs, read
  // committed for tx).
  virtual prism::check::CheckResult Check() const = 0;
  virtual size_t HistoryOps() const = 0;
  // Keys (or blocks) the store holds after Prepare.
  virtual uint64_t StoreKeys() const = 0;
};

// Builds the servers of `app` on `side` and loads the store. `seed` feeds
// any randomness a client needs (ABD-LOCK's backoff).
std::unique_ptr<Target> MakeTarget(App app, Side side, prism::net::Fabric* fabric,
                                   uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TARGETS_H_
