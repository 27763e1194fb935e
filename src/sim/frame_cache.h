// Per-thread recycling of coroutine frames.
//
// Every simulated op is a tree of short-lived coroutines (verb, post gate,
// server path, service-queue use, ...), and each frame used to be one heap
// allocation and one free. Task and the detached driver route their frames
// through this cache instead: freed frames go onto a per-thread free list
// keyed by size class and are handed back to the next frame of that class.
//
// Lifetime rules (DESIGN.md §5.1):
//  * Frames are cached only while at least one sim::Simulator lives on the
//    thread; the Simulator constructor and destructor keep the count.
//  * When the last Simulator on a thread is destroyed the cache is drained,
//    so every simulation starts cold and its heap-allocation count repeats
//    exactly from run to run.
//  * The state is thread_local, so --jobs workers never share a list.
//  * Under AddressSanitizer a cached block is poisoned for as long as it sits
//    on a free list: touching a destroyed (recycled) frame is still reported
//    as a use-after-poison.
#ifndef PRISM_SRC_SIM_FRAME_CACHE_H_
#define PRISM_SRC_SIM_FRAME_CACHE_H_

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace prism::sim::internal {

class FrameCache {
 public:
  static constexpr size_t kGranule = 16;   // size-class width in bytes
  static constexpr size_t kClasses = 128;  // frames up to 2 KiB are cached

  static void* Alloc(size_t size) {
    const size_t c = ClassOf(size);
    if (c >= kClasses) return ::operator new(size);
    State& t = state;
    void* p = t.free[c];
    if (p == nullptr) return ::operator new(BlockBytes(c));
    Unpoison(p, BlockBytes(c));
    t.free[c] = *static_cast<void**>(p);
    return p;
  }

  static void Free(void* p, size_t size) {
    const size_t c = ClassOf(size);
    State& t = state;
    if (c >= kClasses || t.live_simulators == 0) {
      ::operator delete(p);
      return;
    }
    *static_cast<void**>(p) = t.free[c];
    t.free[c] = p;
    Poison(p, BlockBytes(c));
  }

  static void OnSimulatorCreated() { ++state.live_simulators; }

  static void OnSimulatorDestroyed() {
    State& t = state;
    if (--t.live_simulators > 0) return;
    for (size_t c = 0; c < kClasses; ++c) {
      while (void* p = t.free[c]) {
        Unpoison(p, BlockBytes(c));
        t.free[c] = *static_cast<void**>(p);
        ::operator delete(p);
      }
    }
  }

 private:
  // Trivially constructible and destructible, so thread_local access is a
  // plain TLS offset with no guard or exit-time hook.
  struct State {
    int live_simulators;
    void* free[kClasses];
  };
  static inline thread_local State state{};

  static size_t ClassOf(size_t size) { return (size - 1) / kGranule; }
  static size_t BlockBytes(size_t c) { return (c + 1) * kGranule; }

  static void Poison(void* p, size_t n) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(p, n);
#else
    (void)p;
    (void)n;
#endif
  }
  static void Unpoison(void* p, size_t n) {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#else
    (void)p;
    (void)n;
#endif
  }
};

// Mixin for coroutine promise types: the frame is allocated from (and
// returned to) the thread's FrameCache. Only the sized delete is declared,
// so the compiler passes the frame size back on destruction.
struct CachedFrame {
  static void* operator new(size_t size) { return FrameCache::Alloc(size); }
  static void operator delete(void* p, size_t size) {
    FrameCache::Free(p, size);
  }
};

}  // namespace prism::sim::internal

#endif  // PRISM_SRC_SIM_FRAME_CACHE_H_
