// Shared rig for the Figure 3 / Figure 4 key-value benchmarks.
#ifndef PRISM_BENCH_KV_BENCH_LIB_H_
#define PRISM_BENCH_KV_BENCH_LIB_H_

#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "bench/stacks.h"

namespace prism::bench {

// The Pilaf (hardware and software RDMA) and PRISM-KV series.
inline void RunKvFigure(const char* bench_name, const char* title,
                        double read_frac, int jobs,
                        const ObsOptions& obs_opts = {}) {
  RunClientSweepFigure(
      bench_name, title, read_frac,
      {{"Pilaf", 1000, ClosedRunner<PilafStack>(rdma::Backend::kHardwareNic)},
       {"Pilaf (software RDMA)", 2000,
        ClosedRunner<PilafStack>(rdma::Backend::kSoftwareStack)},
       {"PRISM-KV", 3000, ClosedRunner<PrismKvStack>()}},
      jobs, obs_opts);
}

}  // namespace prism::bench

#endif  // PRISM_BENCH_KV_BENCH_LIB_H_
