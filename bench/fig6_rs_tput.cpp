// Figure 6: PRISM-RS vs lock-based ABD, throughput vs average latency.
// 3 replicas, 50% writes, uniform access, 512 B blocks.
//
// Paper shape: PRISM-RS is ~2 µs faster than hardware ABD-LOCK at low load
// (2 chained phases vs 4 sequential lock/read/write/unlock round trips) and
// saturates several Mops later (6 messages per op instead of 12).
#include "bench/stacks.h"
#include "src/harness/sweep.h"

int main(int argc, char** argv) {
  using namespace prism::bench;
  using prism::rdma::Backend;
  RunClientSweepFigure(
      "fig6_rs_tput",
      "Figure 6: replicated block store, 3 replicas, 50% writes, uniform",
      /*mix=*/0.5,
      {{"ABDLOCK", 600, ClosedRunner<AbdLockStack>(Backend::kHardwareNic)},
       {"ABDLOCK (software RDMA)", 700,
        ClosedRunner<AbdLockStack>(Backend::kSoftwareStack)},
       {"PRISM-RS", 800, ClosedRunner<PrismRsStack>()}},
      prism::harness::JobsFromArgs(argc, argv), ObsFromArgs(argc, argv));
  return 0;
}
