// Figure 10: peak transaction throughput vs contention (Zipf coefficient),
// YCSB-T read-modify-write transactions.
//
// Paper shape: both systems lose throughput as skew rises (OCC and lock
// conflicts), but PRISM-TX maintains its advantage across the whole sweep.
#include <cstdio>
#include <vector>

#include "bench/stacks.h"
#include "src/harness/sweep.h"

namespace prism::bench {
namespace {

int Main(int argc, char** argv) {
  const char* bench_name = "fig10_tx_zipf";
  const int kClients = FastMode() ? 96 : 192;  // near-peak load
  std::vector<double> thetas =
      FastMode() ? std::vector<double>{0.0, 0.9, 1.4}
                 : std::vector<double>{0.0, 0.3, 0.6, 0.8, 0.9, 0.99, 1.2,
                                       1.4, 1.6};
  ObsRig rig(ObsFromArgs(argc, argv), 3 * thetas.size());
  const std::vector<SweepCell> cells = ZipfCells(
      rig, kClients, /*mix=*/0.0, thetas, 10,
      {{"FaRM", 100, ClosedRunner<FarmStack>(rdma::Backend::kHardwareNic)},
       {"FaRM (software RDMA)", 200,
        ClosedRunner<FarmStack>(rdma::Backend::kSoftwareStack)},
       {"PRISM-TX", 300, ClosedRunner<PrismTxStack>()}});
  FigureReporter reporter(
      bench_name,
      "Figure 10: peak throughput vs Zipf coefficient (YCSB-T RMW)");
  std::vector<workload::LoadPoint> rows =
      RunFigureSweep(reporter, cells, harness::JobsFromArgs(argc, argv));
  std::printf(
      "\n== Figure 10: peak throughput vs Zipf coefficient (YCSB-T RMW, %d "
      "clients) ==\n",
      kClients);
  std::printf("%6s %14s %10s %26s %10s %16s %10s\n", "zipf", "FaRM(Mtxn/s)",
              "abort%", "FaRM-softRDMA(Mtxn/s)", "abort%",
              "PRISM-TX(Mtxn/s)", "abort%");
  for (size_t i = 0; i < thetas.size(); ++i) {
    const workload::LoadPoint& farm = rows[3 * i];
    const workload::LoadPoint& farm_sw = rows[3 * i + 1];
    const workload::LoadPoint& prism_point = rows[3 * i + 2];
    std::printf("%6.2f %14.3f %9.1f%% %26.3f %9.1f%% %16.3f %9.1f%%\n",
                thetas[i], farm.tput_mops, farm.abort_rate * 100,
                farm_sw.tput_mops, farm_sw.abort_rate * 100,
                prism_point.tput_mops, prism_point.abort_rate * 100);
  }
  reporter.WriteUnified();
  rig.Finish(bench_name, cells);
  return 0;
}

}  // namespace
}  // namespace prism::bench

int main(int argc, char** argv) { return prism::bench::Main(argc, argv); }
