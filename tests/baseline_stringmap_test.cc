// Tests for the StringMap embedding and the StMT / StMNN baselines.

#include <gtest/gtest.h>

#include "run_streaming.h"

#include <cmath>

#include "baselines/stringmap.h"

namespace sablock::baselines {
namespace {

using core::BlockCollection;
using data::Dataset;
using data::Schema;

double Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(s);
}

TEST(StringMapEmbeddingTest, IdenticalStringsMapToSamePoint) {
  StringMapEmbedding emb(4, 7);
  auto points = emb.Embed({"hello", "hello", "world", "hellp"});
  EXPECT_NEAR(Distance(points[0], points[1]), 0.0, 1e-9);
}

TEST(StringMapEmbeddingTest, SimilarStringsCloserThanDissimilar) {
  StringMapEmbedding emb(6, 7);
  auto points = emb.Embed({"catherine", "katherine", "zzzzzzzzz",
                           "catherina", "qqqq", "wwwwwwww"});
  double near = Distance(points[0], points[3]);  // catherine/catherina
  double far = Distance(points[0], points[2]);   // catherine/zzzzzzzzz
  EXPECT_LT(near, far);
}

TEST(StringMapEmbeddingTest, HandlesDegenerateInputs) {
  StringMapEmbedding emb(3, 7);
  EXPECT_TRUE(emb.Embed({}).empty());
  auto one = emb.Embed({"only"});
  ASSERT_EQ(one.size(), 1u);
  auto same = emb.Embed({"x", "x", "x"});
  EXPECT_NEAR(Distance(same[0], same[2]), 0.0, 1e-9);
}

Dataset TypoDataset() {
  Dataset d{Schema({"name"})};
  d.Add({{"jonathan mitchell"}}, 0);
  d.Add({{"jonathan mitchel"}}, 0);
  d.Add({{"jonathon mitchell"}}, 0);
  d.Add({{"elizabeth harrington"}}, 1);
  d.Add({{"elizabeth harington"}}, 1);
  d.Add({{"xxsdlkfjqpwoeiru"}}, 2);
  return d;
}

TEST(StringMapThresholdTest, FindsTypoDuplicates) {
  Dataset d = TypoDataset();
  StringMapThreshold stmt({"name"}, /*threshold=*/0.8,
                          /*grid_size=*/10, /*dimensions=*/4);
  BlockCollection blocks = RunStreaming(stmt, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  EXPECT_TRUE(blocks.InSameBlock(3, 4));
}

TEST(StringMapThresholdTest, SeparatesVeryDifferentStrings) {
  Dataset d = TypoDataset();
  StringMapThreshold stmt({"name"}, 0.9, 10, 4);
  BlockCollection blocks = RunStreaming(stmt, d);
  EXPECT_FALSE(blocks.InSameBlock(0, 5));
}

TEST(StringMapThresholdTest, NameEncodesParameters) {
  StringMapThreshold stmt({"a"}, 0.85, 100, 15);
  EXPECT_EQ(stmt.name(), "StMT(t=0.85,g=100,d=15)");
}

TEST(StringMapNearestNeighbourTest, EveryRecordGetsNeighbours) {
  Dataset d = TypoDataset();
  StringMapNearestNeighbour stmnn({"name"}, /*num_neighbours=*/2,
                                  /*grid_size=*/10, /*dimensions=*/4);
  BlockCollection blocks = RunStreaming(stmnn, d);
  // One block per record (each of the 6 records finds >= 1 candidate).
  EXPECT_EQ(blocks.NumBlocks(), d.size());
  for (const auto& b : blocks.blocks()) {
    EXPECT_GE(b.size(), 2u);
    EXPECT_LE(b.size(), 3u);  // record + at most 2 neighbours
  }
}

TEST(StringMapNearestNeighbourTest, NearestNeighbourIsTheTypoTwin) {
  Dataset d = TypoDataset();
  StringMapNearestNeighbour stmnn({"name"}, 1, 10, 4);
  BlockCollection blocks = RunStreaming(stmnn, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1) || blocks.InSameBlock(0, 2));
}

TEST(StringMapNearestNeighbourTest, NameEncodesParameters) {
  StringMapNearestNeighbour stmnn({"a"}, 5, 1000, 20);
  EXPECT_EQ(stmnn.name(), "StMNN(nn=5,g=1000,d=20)");
}

TEST(StringMapTest, DeterministicForSeed) {
  Dataset d = TypoDataset();
  StringMapThreshold a({"name"}, 0.8, 10, 4, /*seed=*/9);
  StringMapThreshold b({"name"}, 0.8, 10, 4, /*seed=*/9);
  EXPECT_EQ(RunStreaming(a, d).TotalComparisons(), RunStreaming(b, d).TotalComparisons());
}

}  // namespace
}  // namespace sablock::baselines
