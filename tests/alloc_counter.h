// Heap-allocation counter for the allocation-free contract tests. A test
// binary that links alloc_counter.cc replaces the global operator
// new/delete (plain, sized, array and nothrow forms) with counting
// versions; AllocationCount() reads the total.

#ifndef WEBSRA_TESTS_ALLOC_COUNTER_H_
#define WEBSRA_TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace wum::testutil {

/// Calls to the global operator new/new[] (nothrow forms included) since
/// the process started.
std::uint64_t AllocationCount();

}  // namespace wum::testutil

#endif  // WEBSRA_TESTS_ALLOC_COUNTER_H_
