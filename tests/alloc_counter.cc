// The replacements live in their own translation unit, so no caller can
// inline them: gcc's -Wmismatched-new-delete then never sees a `delete`
// expression meet the std::free inside operator delete.

#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
}  // namespace

namespace wum::testutil {
std::uint64_t AllocationCount() { return g_allocations.load(); }
}  // namespace wum::testutil

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

// The nothrow forms must come from the same allocator: the standard
// library allocates some buffers with nothrow new and frees them with
// plain delete (std::stable_sort's temporary buffer), and a sanitizer
// reports that pair as an alloc-dealloc mismatch unless both are ours.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
