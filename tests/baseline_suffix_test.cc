// Tests for the suffix-array blocking family SuA / SuAS / RSuA.

#include <gtest/gtest.h>

#include "run_streaming.h"

#include "baselines/suffix_array.h"

namespace sablock::baselines {
namespace {

using core::BlockCollection;
using data::Dataset;
using data::Schema;

Dataset SuffixDataset() {
  Dataset d{Schema({"name"})};
  d.Add({{"katherine"}}, 0);
  d.Add({{"catherine"}}, 0);   // differs at the front: shares suffixes
  d.Add({{"katherinX"}}, 0);   // differs at the back: suffixes broken
  d.Add({{"zzzzz"}}, 1);
  return d;
}

TEST(SuffixArrayTest, SharedSuffixesCreateBlocks) {
  Dataset d = SuffixDataset();
  SuffixArrayBlocking sua({"name"}, /*min_suffix_len=*/4,
                          /*max_block_size=*/10);
  BlockCollection blocks = RunStreaming(sua, d);
  // katherine & catherine share "atherine", "therine", ...
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  // A trailing error kills all shared suffixes of length >= 4.
  EXPECT_FALSE(blocks.InSameBlock(0, 2));
  EXPECT_FALSE(blocks.InSameBlock(0, 3));
}

TEST(SuffixArrayTest, MaxBlockSizeDiscardsCommonSuffixes) {
  Dataset d{Schema({"name"})};
  for (int i = 0; i < 8; ++i) d.Add({{"common_suffix"}});
  SuffixArrayBlocking sua({"name"}, 4, /*max_block_size=*/5);
  // Every suffix posting has 8 > 5 records: everything is purged.
  EXPECT_EQ(RunStreaming(sua, d).NumBlocks(), 0u);
}

TEST(SuffixArrayTest, ShortValuesIndexedWhole) {
  Dataset d{Schema({"name"})};
  d.Add({{"ab"}}, 0);
  d.Add({{"ab"}}, 0);
  SuffixArrayBlocking sua({"name"}, 5, 10);
  EXPECT_TRUE(RunStreaming(sua, d).InSameBlock(0, 1));
}

TEST(SuffixArrayAllSubstringsTest, ToleratesTrailingErrors) {
  Dataset d = SuffixDataset();
  SuffixArrayAllSubstrings suas({"name"}, 4, 10);
  BlockCollection blocks = RunStreaming(suas, d);
  // Substrings recover the pair that plain suffixes lose.
  EXPECT_TRUE(blocks.InSameBlock(0, 2));
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  EXPECT_FALSE(blocks.InSameBlock(0, 3));
}

TEST(SuffixArrayAllSubstringsTest, MoreCandidatesThanPlainSuffixes) {
  Dataset d = SuffixDataset();
  size_t sua_pairs = RunStreaming(SuffixArrayBlocking({"name"}, 4, 10), d)
                         .DistinctPairs()
                         .size();
  size_t suas_pairs = RunStreaming(SuffixArrayAllSubstrings({"name"}, 4, 10), d)
                          .DistinctPairs()
                          .size();
  EXPECT_GE(suas_pairs, sua_pairs);
}

TEST(RobustSuffixArrayTest, MergesSimilarAdjacentSuffixes) {
  Dataset d{Schema({"name"})};
  d.Add({{"katherine"}}, 0);
  d.Add({{"kathersne"}}, 0);  // "therine"->"thersne": similar suffixes
  RobustSuffixArrayBlocking rsua({"name"}, 5, 20, "edit", 0.7);
  BlockCollection blocks = RunStreaming(rsua, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  // Plain SuA misses this pair at the same settings.
  SuffixArrayBlocking sua({"name"}, 5, 20);
  EXPECT_FALSE(RunStreaming(sua, d).InSameBlock(0, 1));
}

TEST(RobustSuffixArrayTest, ThresholdOneBehavesLikePlainSuA) {
  Dataset d = SuffixDataset();
  RobustSuffixArrayBlocking rsua({"name"}, 4, 10, "edit", 1.0);
  SuffixArrayBlocking sua({"name"}, 4, 10);
  EXPECT_EQ(RunStreaming(rsua, d).DistinctPairs().size(),
            RunStreaming(sua, d).DistinctPairs().size());
}

TEST(SuffixFamilyTest, NamesEncodeParameters) {
  EXPECT_EQ(SuffixArrayBlocking({"a"}, 3, 10).name(),
            "SuA(len=3,max=10)");
  EXPECT_EQ(SuffixArrayAllSubstrings({"a"}, 5, 20).name(),
            "SuAS(len=5,max=20)");
  EXPECT_EQ(
      RobustSuffixArrayBlocking({"a"}, 3, 10, "edit", 0.8).name(),
      "RSuA(len=3,max=10,edit,0.80)");
}

TEST(SuffixFamilyTest, EmptyValuesProduceNoBlocks) {
  Dataset d{Schema({"name"})};
  d.Add({{""}});
  d.Add({{""}});
  EXPECT_EQ(RunStreaming(SuffixArrayBlocking({"name"}, 3, 10), d).NumBlocks(),
            0u);
}

}  // namespace
}  // namespace sablock::baselines
