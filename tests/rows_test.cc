// Tests for features::Rows, the one CSR row layout of the variable-length
// feature columns: rows appended and read back (empty rows included), the
// counts/values factory a snapshot loader builds sorted-set rows with and
// each of its rejections, and the cooperative chunked build, whose
// compacted chunks must equal a one-shot build of the same rows.

#include "features/rows.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"

namespace sablock::features {
namespace {

void AppendSet(Rows<uint64_t>& rows, const std::vector<uint64_t>& set) {
  rows.AppendRow([&](std::vector<uint64_t>& values) {
    values.insert(values.end(), set.begin(), set.end());
  });
}

void AppendText(Rows<char>& rows, std::string_view text) {
  rows.AppendRow([&](std::vector<char>& chars) {
    chars.insert(chars.end(), text.begin(), text.end());
  });
}

template <typename T>
bool SameArrays(const Rows<T>& a, const Rows<T>& b) {
  return std::ranges::equal(a.values(), b.values()) &&
         std::ranges::equal(a.offsets(), b.offsets());
}

TEST(RowsTest, DefaultHasNoRows) {
  const Rows<uint64_t> rows;
  EXPECT_EQ(rows.size(), 0u);
  EXPECT_TRUE(rows.values().empty());
  EXPECT_TRUE(std::ranges::equal(rows.offsets(), std::vector<size_t>{0}));
}

TEST(RowsTest, AppendedRowsReadBackIncludingEmptyOnes) {
  Rows<uint64_t> sets;
  AppendSet(sets, {});
  AppendSet(sets, {3, 9});
  AppendSet(sets, {});
  AppendSet(sets, {1});
  ASSERT_EQ(sets.size(), 4u);
  EXPECT_TRUE(sets.Row(0).empty());
  EXPECT_TRUE(std::ranges::equal(sets.Row(1), std::vector<uint64_t>{3, 9}));
  EXPECT_TRUE(sets.Row(2).empty());
  EXPECT_TRUE(std::ranges::equal(sets.Row(3), std::vector<uint64_t>{1}));
  EXPECT_TRUE(
      std::ranges::equal(sets.offsets(), std::vector<size_t>{0, 0, 2, 2, 3}));
  // Rows are views into the one values array.
  EXPECT_EQ(sets.Row(3).data(), sets.values().data() + 2);

  // Char rows read as string views.
  Rows<char> texts;
  AppendText(texts, "ada lovelace");
  AppendText(texts, "");
  AppendText(texts, "grace");
  ASSERT_EQ(texts.size(), 3u);
  EXPECT_EQ(texts.Row(0), "ada lovelace");
  EXPECT_EQ(texts.Row(1), "");
  EXPECT_EQ(texts.Row(2), "grace");
}

TEST(RowsTest, FromCountsBuildsSortedSetRows) {
  Rows<uint64_t> rows;
  const std::vector<uint64_t> counts = {2, 0, 3};
  Status s = Rows<uint64_t>::FromCounts(counts, {4, 7, 1, 2, 8}, "hashes",
                                        &rows);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(std::ranges::equal(rows.Row(0), std::vector<uint64_t>{4, 7}));
  EXPECT_TRUE(rows.Row(1).empty());
  EXPECT_TRUE(
      std::ranges::equal(rows.Row(2), std::vector<uint64_t>{1, 2, 8}));

  // No rows, and rows that are all empty.
  s = Rows<uint64_t>::FromCounts({}, {}, "hashes", &rows);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(rows.size(), 0u);
  const std::vector<uint64_t> zeros = {0, 0};
  s = Rows<uint64_t>::FromCounts(zeros, {}, "hashes", &rows);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows.Row(1).empty());
}

TEST(RowsTest, FromCountsRejectsEachCorruption) {
  struct Case {
    const char* what;
    std::vector<uint64_t> counts;
    std::vector<uint32_t> values;
    const char* error;
  };
  const Case cases[] = {
      {"counts past the values", {1, 3}, {0, 1, 2},
       "counts exceed its ids"},
      {"a count past everything", {UINT64_MAX}, {0}, "counts exceed its ids"},
      {"counts short of the values", {1}, {0, 1},
       "counts do not cover its ids"},
      {"values but no rows", {}, {5}, "counts do not cover its ids"},
      {"values out of order", {1, 2}, {0, 2, 1},
       "row 1 ids are not strictly ascending"},
      {"a repeated value", {3}, {1, 4, 4},
       "row 0 ids are not strictly ascending"},
  };
  for (const Case& c : cases) {
    // A rejected section leaves the output as it was.
    Rows<uint32_t> rows;
    rows.AppendRow([](std::vector<uint32_t>& ids) { ids.push_back(6); });
    Status s = Rows<uint32_t>::FromCounts(c.counts, c.values, "ids", &rows);
    ASSERT_FALSE(s.ok()) << c.what;
    EXPECT_EQ(s.message(), c.error) << c.what;
    ASSERT_EQ(rows.size(), 1u) << c.what;
    EXPECT_TRUE(std::ranges::equal(rows.Row(0), std::vector<uint32_t>{6}));
  }
}

TEST(RowsTest, ChunkedBuildEqualsAOneShotBuild) {
  // Seeded sets, empty ones among them, written the way a cooperative
  // build writes them: chunks in any order, each from its own first slot
  // of an array sized by per-row upper bounds, then compacted.
  Rng rng(2024);
  std::vector<std::vector<uint64_t>> expected(1000);
  for (std::vector<uint64_t>& set : expected) {
    const size_t size = rng.UniformIndex(6);  // 0..5 values
    for (size_t i = 0; i < size; ++i) set.push_back(rng.UniformIndex(64));
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
  }
  Rows<uint64_t> one_shot;
  for (const std::vector<uint64_t>& set : expected) AppendSet(one_shot, set);

  for (size_t chunk : {size_t{1}, size_t{7}, size_t{512}, size_t{1000},
                       size_t{4096}}) {
    const size_t num_chunks = (expected.size() + chunk - 1) / chunk;
    std::vector<size_t> firsts(num_chunks);
    size_t slots = 0;
    for (size_t id = 0; id < expected.size(); ++id) {
      if (id % chunk == 0) firsts[id / chunk] = slots;
      slots += expected[id].size() + rng.UniformIndex(3);  // with slack
    }
    std::vector<size_t> order(num_chunks);
    for (size_t c = 0; c < num_chunks; ++c) order[c] = c;
    rng.Shuffle(&order);
    Rows<uint64_t> chunked(expected.size(), slots);
    for (size_t c : order) {
      size_t slot = firsts[c];
      const size_t end = std::min(expected.size(), c * chunk + chunk);
      for (size_t id = c * chunk; id < end; ++id) {
        slot = chunked.WriteRow(id, slot, [&](std::span<uint64_t> out) {
          std::copy(expected[id].begin(), expected[id].end(), out.begin());
          return expected[id].size();
        });
      }
    }
    chunked.Compact(firsts, chunk);
    EXPECT_TRUE(SameArrays(chunked, one_shot)) << "chunk " << chunk;
  }
  // A chunked build of no rows is one empty chunk.
  Rows<char> empty(0, 0);
  empty.Compact(std::vector<size_t>{0}, 512);
  EXPECT_TRUE(SameArrays(empty, Rows<char>()));
}

}  // namespace
}  // namespace sablock::features
