// Counting global allocator (same pattern as tests/sim_test.cc). The array
// and nothrow forms of operator new forward to the scalar form in
// libstdc++, so the scalar and aligned overrides see every allocation.
#include "perfbench/src/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_calls{0};
std::atomic<uint64_t> g_bytes{0};

void Count(std::size_t size) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  Count(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  Count(size);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

AllocCount Allocations() {
  return AllocCount{g_calls.load(std::memory_order_relaxed),
                    g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench
