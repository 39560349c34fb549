// Tests for BlockCollection bookkeeping and the θB view of Eq. 2.

#include <gtest/gtest.h>

#include "core/blocking.h"

namespace sablock::core {
namespace {

TEST(BlockCollectionTest, EmptyCollection) {
  BlockCollection c;
  EXPECT_EQ(c.NumBlocks(), 0u);
  EXPECT_EQ(c.TotalComparisons(), 0u);
  EXPECT_EQ(c.TotalBlockSizes(), 0u);
  EXPECT_EQ(c.MaxBlockSize(), 0u);
  EXPECT_EQ(c.DistinctPairs().size(), 0u);
}

TEST(BlockCollectionTest, ComparisonCounts) {
  BlockCollection c;
  c.Add({0, 1, 2});     // 3 comparisons
  c.Add({3, 4});        // 1 comparison
  c.Add({5});           // 0 comparisons
  EXPECT_EQ(c.NumBlocks(), 3u);
  EXPECT_EQ(c.TotalComparisons(), 4u);
  EXPECT_EQ(c.TotalBlockSizes(), 6u);
  EXPECT_EQ(c.MaxBlockSize(), 3u);
}

TEST(BlockCollectionTest, DistinctPairsDeduplicateAcrossBlocks) {
  BlockCollection c;
  c.Add({0, 1, 2});
  c.Add({1, 2, 3});  // pair (1,2) repeated
  PairSet pairs = c.DistinctPairs();
  EXPECT_EQ(pairs.size(), 5u);  // (0,1)(0,2)(1,2)(1,3)(2,3)
  EXPECT_EQ(c.TotalComparisons(), 6u);
  EXPECT_TRUE(pairs.Contains(1, 2));
  EXPECT_FALSE(pairs.Contains(0, 3));
}

TEST(BlockCollectionTest, InSameBlockMatchesThetaB) {
  BlockCollection c;
  c.Add({0, 1});
  c.Add({2, 3, 4});
  EXPECT_TRUE(c.InSameBlock(0, 1));
  EXPECT_TRUE(c.InSameBlock(4, 2));
  EXPECT_FALSE(c.InSameBlock(1, 2));
  EXPECT_FALSE(c.InSameBlock(0, 4));
}

// The running example of Fig. 1: B1, B2, B3 produce 6, 9 and 4 candidate
// pairs respectively (record ids 0..5 for r1..r6).
TEST(BlockCollectionTest, Fig1RunningExamplePairCounts) {
  BlockCollection b1;
  b1.Add({0, 1, 3, 5});  // {r1, r2, r4, r6}
  b1.Add({2});
  b1.Add({4});
  EXPECT_EQ(b1.DistinctPairs().size(), 6u);

  BlockCollection b2;
  b2.Add({0, 1, 2, 5});  // {r1, r2, r3, r6}
  b2.Add({3, 4, 5});     // {r4, r5, r6}
  EXPECT_EQ(b2.DistinctPairs().size(), 9u);

  BlockCollection b3;
  b3.Add({0, 1, 5});  // {r1, r2, r6}
  b3.Add({3, 5});     // {r4, r6}
  b3.Add({2});
  b3.Add({4});
  EXPECT_EQ(b3.DistinctPairs().size(), 4u);
}

TEST(BlockCollectionTest, DuplicateIdsInsideBlockAreIgnoredForPairs) {
  BlockCollection c;
  c.Add({7, 7, 8});
  PairSet pairs = c.DistinctPairs();
  EXPECT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs.Contains(7, 8));
}

TEST(BlockCollectionTest, LargeOverlappingCollectionPairCount) {
  BlockCollection c;
  for (uint32_t t = 0; t < 50; ++t) {
    std::vector<data::RecordId> b;
    for (uint32_t i = 0; i < 40; ++i) b.push_back((t + i) % 200);
    c.Add(b);
  }
  PairSet pairs = c.DistinctPairs();
  EXPECT_GT(pairs.size(), 0u);
  EXPECT_LE(pairs.size(), 200u * 199 / 2);
  EXPECT_EQ(c.TotalComparisons(), 50u * (40 * 39 / 2));
}

}  // namespace
}  // namespace sablock::core
