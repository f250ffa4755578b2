#include "alloc_meter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_allocated{0};

}  // namespace

namespace cellscope::test {

std::size_t allocated_bytes() {
  return g_allocated.load(std::memory_order_relaxed);
}

}  // namespace cellscope::test

// The replaceable forms the others (array, nothrow) forward to; the
// aligned forms keep their library definitions, which pair with their
// own deletes.
void* operator new(std::size_t n) {
  g_allocated.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }
