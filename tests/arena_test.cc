// StringArena's chunk sizes, observed through a replaced operator new[]
// (the one allocation the arena makes per chunk). A small dataset's first
// chunk holds just its need, far under glibc's default 128 KiB mmap
// threshold, and later chunks double up to 256 KiB, so a large dataset
// still grows in 256 KiB steps. Views stay valid across every growth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "data/arena.h"
#include "data/record.h"

namespace sablock {

/// When set, every operator new[] call appends its size here.
std::vector<size_t>* g_array_sizes = nullptr;

namespace {

constexpr size_t kMmapThreshold = size_t{128} << 10;
constexpr size_t kMaxChunk = size_t{256} << 10;

/// The operator new[] sizes that `fn` asks for.
template <typename Fn>
std::vector<size_t> ArraySizes(Fn&& fn) {
  std::vector<size_t> sizes;
  sizes.reserve(1024);
  g_array_sizes = &sizes;
  fn();
  g_array_sizes = nullptr;
  return sizes;
}

TEST(StringArenaTest, SmallDatasetStaysUnderTheMmapThreshold) {
  std::vector<size_t> sizes = ArraySizes([] {
    data::Dataset d{data::Schema({"name", "city"})};
    d.Add({{"alice", "berlin"}}, 0);
    d.AddRow(std::vector<std::string_view>{"bob", "paris"}, 1);
  });
  ASSERT_FALSE(sizes.empty());
  EXPECT_LT(*std::max_element(sizes.begin(), sizes.end()), kMmapThreshold);
}

TEST(StringArenaTest, ChunksDoubleUpTo256KiB) {
  data::StringArena arena;
  const std::string value(100, 'x');
  std::vector<std::string_view> views;
  const std::vector<size_t> sizes = ArraySizes([&] {
    for (int i = 0; i < 20000; ++i) views.push_back(arena.Intern(value));
  });
  ASSERT_GE(sizes.size(), 2u);
  EXPECT_EQ(sizes.front(), value.size());
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], std::min(2 * sizes[i - 1], kMaxChunk)) << i;
  }
  EXPECT_EQ(sizes.back(), kMaxChunk);
  EXPECT_EQ(arena.bytes(), 20000 * value.size());
  for (std::string_view v : views) ASSERT_EQ(v, value);
}

TEST(StringArenaTest, LongValueGetsAChunkOfItsOwnSize) {
  data::StringArena arena;
  const std::string big(kMaxChunk + 1000, 'y');
  const std::vector<size_t> sizes = ArraySizes([&] {
    arena.Intern("a");
    EXPECT_EQ(arena.Intern(big), big);
    arena.Intern("b");
  });
  EXPECT_EQ(sizes, (std::vector<size_t>{1, big.size(), kMaxChunk}));
}

}  // namespace
}  // namespace sablock

// A replacement operator new[] over malloc, recording sizes when asked.
// GCC cannot see that the pair matches once it inlines the delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new[](std::size_t size) {
  if (sablock::g_array_sizes != nullptr) {
    sablock::g_array_sizes->push_back(size);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
