// Tests for the canopy-clustering baselines CaTh and CaNN.

#include <gtest/gtest.h>

#include "run_streaming.h"

#include "baselines/canopy.h"

namespace sablock::baselines {
namespace {

using core::BlockCollection;
using data::Dataset;
using data::Schema;

Dataset TokenDataset() {
  Dataset d{Schema({"name"})};
  d.Add({{"john michael smith"}}, 0);
  d.Add({{"john m smith"}}, 0);
  d.Add({{"john smith"}}, 0);
  d.Add({{"mary johnson brown"}}, 1);
  d.Add({{"mary johnson"}}, 1);
  d.Add({{"unrelated tokens here"}}, 2);
  return d;
}

TEST(CanopyThresholdTest, GroupsTokenOverlappingRecords) {
  Dataset d = TokenDataset();
  CanopyThreshold cath({"name"}, CanopySimilarity::kJaccard,
                       /*loose=*/0.3, /*tight=*/0.8, /*seed=*/5);
  BlockCollection blocks = RunStreaming(cath, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  EXPECT_TRUE(blocks.InSameBlock(3, 4));
  EXPECT_FALSE(blocks.InSameBlock(0, 5));
  EXPECT_FALSE(blocks.InSameBlock(0, 3));
}

TEST(CanopyThresholdTest, EveryRecordInAtMostOneSeedRole) {
  // With tight == loose every canopied record is removed from the pool, so
  // canopies partition the reachable records.
  Dataset d = TokenDataset();
  CanopyThreshold cath({"name"}, CanopySimilarity::kJaccard, 0.3,
                       0.3, 5);
  BlockCollection blocks = RunStreaming(cath, d);
  std::vector<int> membership(d.size(), 0);
  for (const auto& b : blocks.blocks()) {
    for (auto id : b) ++membership[id];
  }
  for (int count : membership) EXPECT_LE(count, 1);
}

TEST(CanopyThresholdTest, TfIdfVariantRuns) {
  Dataset d = TokenDataset();
  CanopyThreshold cath({"name"}, CanopySimilarity::kTfIdfCosine,
                       0.2, 0.6, 5);
  BlockCollection blocks = RunStreaming(cath, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1) || blocks.InSameBlock(0, 2));
}

TEST(CanopyThresholdTest, DeterministicForSeed) {
  Dataset d = TokenDataset();
  CanopyThreshold cath({"name"}, CanopySimilarity::kJaccard, 0.3,
                       0.8, 5);
  EXPECT_EQ(RunStreaming(cath, d).TotalComparisons(), RunStreaming(cath, d).TotalComparisons());
}

TEST(CanopyThresholdTest, NameEncodesParameters) {
  CanopyThreshold cath({"a"}, CanopySimilarity::kJaccard, 0.7,
                       0.9);
  EXPECT_EQ(cath.name(), "CaTh(jac,0.90/0.70)");
}

TEST(CanopyNearestNeighbourTest, CanopySizesRespectN1) {
  Dataset d = TokenDataset();
  CanopyNearestNeighbour cann({"name"},
                              CanopySimilarity::kJaccard, /*n1=*/2,
                              /*n2=*/1, /*seed=*/5);
  BlockCollection blocks = RunStreaming(cann, d);
  for (const auto& b : blocks.blocks()) {
    EXPECT_LE(b.size(), 3u);  // seed + n1 neighbours
  }
}

TEST(CanopyNearestNeighbourTest, FindsNearDuplicates) {
  Dataset d = TokenDataset();
  CanopyNearestNeighbour cann({"name"},
                              CanopySimilarity::kJaccard, 3, 2, 5);
  BlockCollection blocks = RunStreaming(cann, d);
  // Within the john-smith cluster at least one true pair must be covered.
  bool found = blocks.InSameBlock(0, 1) || blocks.InSameBlock(0, 2) ||
               blocks.InSameBlock(1, 2);
  EXPECT_TRUE(found);
}

TEST(CanopyNearestNeighbourTest, NameEncodesParameters) {
  CanopyNearestNeighbour cann({"a"},
                              CanopySimilarity::kTfIdfCosine, 10, 5);
  EXPECT_EQ(cann.name(), "CaNN(tfidf,10/5)");
}

TEST(CanopyNearestNeighbourDeathTest, RejectsRemoveCountAboveCanopySize) {
  EXPECT_DEATH(CanopyNearestNeighbour({"a"},
                                      CanopySimilarity::kJaccard, 5, 10),
               "CHECK");
}

TEST(CanopyTest, IsolatedRecordsFormNoBlocks) {
  Dataset d{Schema({"name"})};
  d.Add({{"alpha"}});
  d.Add({{"beta"}});
  d.Add({{"gamma"}});
  CanopyThreshold cath({"name"}, CanopySimilarity::kJaccard, 0.5,
                       0.9, 5);
  EXPECT_EQ(RunStreaming(cath, d).NumBlocks(), 0u);
}

}  // namespace
}  // namespace sablock::baselines
