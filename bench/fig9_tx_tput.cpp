// Figure 9: PRISM-TX vs FaRM, throughput vs average latency, YCSB-T
// read-modify-write transactions, uniform access, single shard (full
// distributed commit protocol).
//
// Paper shape: PRISM-TX commits in two one-sided rounds (+1 execution read)
// and lands ≈5.5 µs faster than FaRM, whose commit needs two RPC phases of
// server CPU; PRISM-TX also reaches ~1 M more txn/s before saturating.
#include "bench/stacks.h"
#include "src/harness/sweep.h"

int main(int argc, char** argv) {
  using namespace prism::bench;
  using prism::rdma::Backend;
  RunClientSweepFigure(
      "fig9_tx_tput",
      "Figure 9: transactions, YCSB-T RMW, uniform, single shard",
      /*mix=*/0.0,
      {{"FaRM", 900, ClosedRunner<FarmStack>(Backend::kHardwareNic)},
       {"FaRM (software RDMA)", 910,
        ClosedRunner<FarmStack>(Backend::kSoftwareStack)},
       {"PRISM-TX", 920, ClosedRunner<PrismTxStack>()}},
      prism::harness::JobsFromArgs(argc, argv), ObsFromArgs(argc, argv),
      /*abort_column=*/true);
  return 0;
}
