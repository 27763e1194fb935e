// The per-layer ladder: one rung per layer, each calling that layer's
// public function with one op in flight and running the simulation to
// completion per call.
//
//   sim            engine event (self-rescheduling timer)
//   net            Fabric::Send -> delivery
//   rdma           RdmaClient READ / CAS round trip (hardware NIC)
//   rpc            RpcClient::Call to an empty handler
//   prism          PrismClient chain: 1-op indirect READ; WRITE+ALLOCATE+CAS
//   kv / rs / tx   one app op through the benchmark's own targets
//
// A rung's self time is its time per call minus the lower rungs it
// invokes, weighted by its measured per-call counts (see README.md).
#ifndef PERFBENCH_SRC_LADDER_H_
#define PERFBENCH_SRC_LADDER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Rung {
  std::string name;   // metric prefix, e.g. "rdma.read"
  double ns = 0;      // host ns per call (median of batches)
  double events = 0;  // engine events per call
  double allocs = 0;  // heap allocations per call
  double msgs = 0;    // fabric messages per call
  double rt = 0;      // transport round trips per call
  double cpu = 0;     // transport cpu_actions per call
  double self_ns = 0;
};

struct Ladder {
  double sim_ns_per_event = 0;
  double sim_allocs_per_event = 0;
  std::vector<Rung> rungs;  // net upward
  // Store set-up cost per key, both systems of each app averaged.
  double kv_load_ns_per_key = 0;
  double rs_load_ns_per_key = 0;
  double tx_load_ns_per_key = 0;
};

Ladder RunLadder(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LADDER_H_
