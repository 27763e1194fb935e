// Figure 7: PRISM-RS vs ABD-LOCK latency as contention rises.
// 100 closed-loop clients, 50% writes, Zipf coefficient swept 0 → 1.2.
//
// Paper shape: PRISM-RS latency stays flat at every skew (CAS_GT never
// blocks), while ABD-LOCK degrades sharply once hot blocks cause lock
// conflicts and backoff.
#include <cstdio>
#include <vector>

#include "bench/stacks.h"
#include "src/harness/sweep.h"

namespace prism::bench {
namespace {

int Main(int argc, char** argv) {
  const char* bench_name = "fig7_rs_zipf";
  const int kClients = FastMode() ? 40 : 100;
  std::vector<double> thetas = FastMode()
                                   ? std::vector<double>{0.0, 0.9, 1.2}
                                   : std::vector<double>{0.0, 0.2, 0.4, 0.6,
                                                         0.8, 0.9, 0.99, 1.1,
                                                         1.2};
  ObsRig rig(ObsFromArgs(argc, argv), 2 * thetas.size());
  const std::vector<SweepCell> cells = ZipfCells(
      rig, kClients, /*mix=*/0.5, thetas, 100,
      {{"ABDLOCK", 7000,
        ClosedRunner<AbdLockStack>(rdma::Backend::kHardwareNic)},
       {"PRISM-RS", 7500, ClosedRunner<PrismRsStack>()}});
  FigureReporter reporter(
      bench_name, "Figure 7: latency vs Zipf coefficient, 50% writes");
  std::vector<workload::LoadPoint> rows =
      RunFigureSweep(reporter, cells, harness::JobsFromArgs(argc, argv));
  std::printf(
      "\n== Figure 7: latency vs Zipf coefficient (%d closed-loop clients, "
      "50%% writes) ==\n",
      kClients);
  std::printf("%6s %22s %24s %22s\n", "zipf", "ABDLOCK mean(us)",
              "ABDLOCK lock-failure%", "PRISM-RS mean(us)");
  for (size_t i = 0; i < thetas.size(); ++i) {
    const workload::LoadPoint& abd = rows[2 * i];
    const workload::LoadPoint& prism_point = rows[2 * i + 1];
    std::printf("%6.2f %22.1f %23.1f%% %22.1f\n", thetas[i], abd.mean_us,
                abd.abort_rate * 100.0, prism_point.mean_us);
  }
  reporter.WriteUnified();
  rig.Finish(bench_name, cells);
  return 0;
}

}  // namespace
}  // namespace prism::bench

int main(int argc, char** argv) { return prism::bench::Main(argc, argv); }
