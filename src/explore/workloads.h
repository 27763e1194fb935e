// Explorable workloads, and the one definition of a checked chaos run.
//
// RunWorkload is one self-contained simulated execution: build the
// simulator (the schedule hook goes in before any event exists), the
// fabric and the service stack, arm the chaos schedule (with the selected
// fault windows disabled), drive the clients to completion, then perform
// quiescent final reads and run every applicable checker plus the
// differential final-state oracle (oracle.h).
//
// The four chaos workloads (rs, kv, tx, consensus) share one skeleton and
// one scale: three clients at the chaos sweeps' sizes under the default
// ChaosOptions. tests/chaos_test.cc sweeps them at hook == nullptr, and the
// explorer multiplies each (workload, seed) point by N perturbed schedules,
// so a seed that fails either way replays through the same reproducer
// (tools/explore_main --replay=).
//
// Determinism: RunWorkload is a pure function of (kind, seed, hook
// decisions, disabled windows). With hook == nullptr the production engine
// runs untouched; with an IdentityHook the event order — and therefore
// executed_events and history_fingerprint — is bit-identical to that
// (explore_test pins this down). Tracing and metrics do not change it
// either.
#ifndef PRISM_SRC_EXPLORE_WORKLOADS_H_
#define PRISM_SRC_EXPLORE_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/sim/simulator.h"

namespace prism::consensus {
class ConsensusCluster;
}  // namespace prism::consensus

namespace prism::explore {

enum class Workload {
  kToy,  // buggy primary/backup register (toy_replica.h) — no chaos
  kRs,   // PRISM-RS: 3-replica ABD under chaos
  kKv,   // PRISM-KV: single server under chaos
  kTx,   // PRISM-TX: 2 shards under chaos, read-committed
  // One-sided synchronization schemes over the remote hash index
  // (src/sync). Chaos-free: the interesting failure surface is schedule
  // reordering, and fault-free runs keep shrunk reproducers perturbation-
  // only. sync_buggy is the positive control — canonical schedules are
  // clean, bounded reordering tears its unfenced critical sections.
  kSyncSpin,
  kSyncOpt,
  kSyncLease,
  kSyncPrism,
  kSyncBuggy,
  // Permission-guarded consensus (src/consensus). `consensus` is the
  // correct protocol under chaos (crashes, partitions, loss) —
  // linearizability plus the cross-replica log-safety oracle must hold on
  // every schedule. `consensus_buggy` is the positive control: revocation
  // without a quorum (require_revoke_quorum = false) run chaos-free through
  // a scripted leader takeover whose split brain only surfaces when the
  // schedule reorders the deposed leader's commit chain ahead of the
  // usurper's revoke at the shared replica.
  kConsensus,
  kConsensusBuggy,
};

// The enabled-window width a workload's races need. The sync schemes race
// verbs that are several fabric events apart, so they want a wider window
// than the toy's nanosecond-scale bug; tools/explore_main uses this as the
// per-workload default when --delta is not given.
sim::Duration DefaultDelta(Workload kind);

// Perturbed runs per seed. The sync schemes' races live in short effect
// clusters scattered across the schedule — each run's perturbation burst
// covers one position, so they need more runs than the chaos workloads,
// whose fault windows already stretch across the whole execution;
// tools/explore_main uses this when --explore is not given.
int DefaultRuns(Workload kind);

const char* WorkloadName(Workload kind);
bool WorkloadFromName(std::string_view name, Workload* out);

struct RunOutcome {
  bool ok = true;
  std::string check_name;  // failing check: linearizability | final-state |
                           // read-committed | log-safety | hang
  std::string error;       // witness from the failing check
  int fault_windows = 0;       // windows in this seed's chaos schedule
  std::string fault_schedule;  // ChaosMonkey::Describe() for the banner
  // Progress of a chaos run: fault events injected, completed leader
  // elections (consensus only) and client ops that returned ok.
  int faults = 0;
  uint64_t failovers = 0;
  uint64_t ok_ops = 0;
  uint64_t executed_events = 0;
  // FNV over every op the clients recorded, taken before the final reads.
  uint64_t history_fingerprint = 0;
  std::string metrics;         // snapshot text, when WorkloadOptions::metrics
  bool trace_written = false;  // WorkloadOptions::trace_path was written
};

struct WorkloadOptions {
  WorkloadOptions() = default;
  WorkloadOptions(Workload k, uint64_t s) : kind(k), seed(s) {}

  Workload kind = Workload::kToy;
  uint64_t seed = 1;
  // Schedule hook to install (not owned); nullptr = production engine.
  sim::ScheduleHook* hook = nullptr;
  // Chaos fault windows to drop (see ChaosMonkey::SetWindowDisabled).
  const std::vector<int>* disabled_windows = nullptr;
  // Observability for a replay; every workload but the fabric-less toy
  // honours them. A non-empty trace_path writes the run's span trace there
  // as Chrome trace-event JSON; metrics fills RunOutcome::metrics.
  std::string trace_path;
  bool metrics = false;
};

RunOutcome RunWorkload(const WorkloadOptions& opts);

// Globally unique value bytes for (seed, client, op), so value equality is
// write identity across a whole sweep. Requires size >= 11.
Bytes UniqueValue(size_t size, uint64_t seed, int client, int op);

// The consensus log-safety oracle: below both commit words, two replicas
// that both hold a slot must hold the same key and value (holes are legal —
// indeterminate ops that never landed; header epochs may lag until healing
// rewrites them). On a divergence, names the replicas and the slot.
bool CommittedPrefixesAgree(const consensus::ConsensusCluster& cluster,
                            std::string* error);

}  // namespace prism::explore

#endif  // PRISM_SRC_EXPLORE_WORKLOADS_H_
