// The allocation counter itself: a binary that links alloc_counter.cc
// must stay usable under AddressSanitizer when the standard library
// pairs nothrow new with plain delete, as std::stable_sort's temporary
// buffer does.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"

namespace wum::testutil {
namespace {

TEST(AllocCounterTest, StableSortTemporaryBufferIsCountedAndFreed) {
  // Enough elements that stable_sort asks for its temporary buffer.
  std::vector<std::pair<int, std::string>> items;
  for (int i = 0; i < 4096; ++i) {
    items.emplace_back((i * 7919) % 97, "item-" + std::to_string(i));
  }
  const std::uint64_t before = AllocationCount();
  std::stable_sort(
      items.begin(), items.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_GT(AllocationCount(), before);  // the buffer came through nothrow new
  for (std::size_t i = 1; i < items.size(); ++i) {
    ASSERT_LE(items[i - 1].first, items[i].first);
    if (items[i - 1].first == items[i].first) {
      // Stable: equal keys keep their insertion order.
      const int a = std::stoi(items[i - 1].second.substr(5));
      const int b = std::stoi(items[i].second.substr(5));
      ASSERT_LT(a, b);
    }
  }
}

TEST(AllocCounterTest, NothrowFormsPairWithTheirDeletes) {
  const std::uint64_t before = AllocationCount();
  int* one = new (std::nothrow) int(7);
  int* many = new (std::nothrow) int[16]();
  ASSERT_NE(one, nullptr);
  ASSERT_NE(many, nullptr);
  EXPECT_EQ(AllocationCount(), before + 2);
  delete one;
  delete[] many;
  void* raw = ::operator new(32, std::nothrow);
  ::operator delete(raw, std::nothrow);
  void* raw_array = ::operator new[](32, std::nothrow);
  ::operator delete[](raw_array, std::nothrow);
  EXPECT_EQ(AllocationCount(), before + 4);
}

}  // namespace
}  // namespace wum::testutil
