// Global operator-new counter for common.allocs_per_op, the same hook
// tests/alloc_regression_test.cc uses: every new/new[] in the process
// (all threads) bumps one relaxed atomic. Deletes stay plain free().
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "report.h"

namespace {
std::atomic<std::uint64_t> g_new_calls{0};

void* counted_alloc(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
std::uint64_t allocs() { return g_new_calls.load(std::memory_order_relaxed); }
}  // namespace perfbench
