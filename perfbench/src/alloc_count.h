// Process-wide heap allocation counter.
//
// alloc_count.cc replaces the global operator new/delete for the benchmark
// binary only, counting every allocation and its requested size. The
// benchmark reads the counters before and after a timed region and divides
// the deltas by the operations the region executed.
#ifndef PERFBENCH_SRC_ALLOC_COUNT_H_
#define PERFBENCH_SRC_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;

  friend AllocCount operator-(AllocCount a, const AllocCount& b) {
    a.calls -= b.calls;
    a.bytes -= b.bytes;
    return a;
  }
  friend bool operator==(const AllocCount&, const AllocCount&) = default;
};

// Allocations made since the process started.
AllocCount Allocations();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ALLOC_COUNT_H_
