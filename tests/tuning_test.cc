// Tests for parameter tuning (Section 5.3), including the paper's worked
// example k=4, l=63.

#include <gtest/gtest.h>

#include "core/collision.h"
#include "core/tuning.h"
#include "data/cora_generator.h"

namespace sablock::core {
namespace {

TEST(SimilarityDistributionTest, Bins) {
  SimilarityDistribution dist(10);
  dist.Add(0.05);
  dist.Add(0.15);
  dist.Add(0.15);
  dist.Add(0.95);
  EXPECT_EQ(dist.count(), 4u);
  EXPECT_NEAR(dist.BinFraction(0), 0.25, 1e-12);
  EXPECT_NEAR(dist.BinFraction(1), 0.50, 1e-12);
  EXPECT_NEAR(dist.BinFraction(9), 0.25, 1e-12);
}

TEST(SimilarityDistributionTest, BoundaryValueGoesToLastBin) {
  SimilarityDistribution dist(10);
  dist.Add(1.0);
  EXPECT_NEAR(dist.BinFraction(9), 1.0, 1e-12);
}

TEST(SimilarityDistributionTest, ThresholdForErrorRatio) {
  SimilarityDistribution dist(10);
  // 10% of matches below 0.1, the rest at 0.85.
  for (int i = 0; i < 10; ++i) dist.Add(0.05);
  for (int i = 0; i < 90; ++i) dist.Add(0.85);
  // epsilon = 0.15 allows losing the low bin entirely.
  double sh = dist.ThresholdForErrorRatio(0.15);
  EXPECT_GT(sh, 0.05);
  EXPECT_LE(sh, 0.85);
  // epsilon = 0 must not lose anything.
  EXPECT_LE(dist.ThresholdForErrorRatio(0.0), 0.05);
}

TEST(SimilarityDistributionTest, EmptyDistribution) {
  SimilarityDistribution dist;
  EXPECT_DOUBLE_EQ(dist.ThresholdForErrorRatio(0.1), 0.0);
  EXPECT_DOUBLE_EQ(dist.BinFraction(0), 0.0);
}

TEST(TuneKLTest, ReproducesPaperExample) {
  // Section 6.1: sh=0.3, ph=0.4, sl=0.2, pl=0.1 determine k=4, l=63.
  LshTuning t = TuneKL(0.3, 0.4, 0.2, 0.1);
  ASSERT_TRUE(t.feasible);
  EXPECT_EQ(t.k, 4);
  EXPECT_EQ(t.l, 63);
}

TEST(TuneKLTest, InfeasibleWhenConstraintsConflict) {
  // Demanding near-certain collisions at sh and near-zero at a barely
  // smaller sl cannot be satisfied with small k.
  LshTuning t = TuneKL(0.31, 0.999, 0.30, 0.001, /*max_k=*/3,
                       /*max_l=*/100);
  EXPECT_FALSE(t.feasible);
}

TEST(TuneKLTest, SolutionSatisfiesBothConstraints) {
  for (double sh : {0.3, 0.5, 0.8}) {
    double sl = sh - 0.15;
    LshTuning t = TuneKL(sh, 0.5, sl, 0.1);
    if (!t.feasible) continue;
    EXPECT_GE(LshCollisionProbability(sh, t.k, t.l), 0.5 - 1e-9);
    EXPECT_LE(LshCollisionProbability(sl, t.k, t.l), 0.1 + 1e-9);
  }
}

TEST(MeasureTrueMatchSimilarityTest, OnGeneratedCora) {
  data::CoraGeneratorConfig config;
  config.num_entities = 30;
  config.num_records = 200;
  config.seed = 21;
  data::Dataset d = GenerateCoraLike(config);

  DistributionOptions options;
  options.attributes = {"authors", "title"};
  options.q = 3;
  SimilarityDistribution dist = MeasureTrueMatchSimilarity(d, options);
  EXPECT_EQ(dist.count(), d.CountTrueMatchPairs());
  // Duplicates are corrupted copies: most mass should sit above 0.2, that
  // is, in the 20 default bins past the first four.
  double below = 0.0;
  for (int i = 0; i < 4; ++i) below += dist.BinFraction(i);
  EXPECT_LT(below, 0.5);
}

TEST(MeasureTrueMatchSimilarityTest, SamplingCapsPairCount) {
  data::CoraGeneratorConfig config;
  config.num_entities = 10;
  config.num_records = 120;
  config.seed = 22;
  data::Dataset d = GenerateCoraLike(config);

  DistributionOptions options;
  options.attributes = {"authors", "title"};
  options.max_pairs = 50;
  SimilarityDistribution dist = MeasureTrueMatchSimilarity(d, options);
  EXPECT_EQ(dist.count(), 50u);
}

TEST(MeasureTrueMatchSimilarityTest, ExactValueMode) {
  data::Dataset d{data::Schema({"name"})};
  d.Add({{"alice"}}, 0);
  d.Add({{"alice"}}, 0);
  d.Add({{"alicia"}}, 0);
  DistributionOptions options;
  options.attributes = {"name"};
  options.q = 0;  // exact-value similarity
  SimilarityDistribution dist = MeasureTrueMatchSimilarity(d, options);
  EXPECT_EQ(dist.count(), 3u);
  // Exactly one of the three pairs is an exact match.
  EXPECT_NEAR(dist.BinFraction(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(dist.BinFraction(dist.num_bins() - 1), 1.0 / 3.0, 1e-12);
}

TEST(MeasureTrueMatchSimilarityTest, NoLabelsYieldsEmpty) {
  data::Dataset d{data::Schema({"name"})};
  d.Add({{"a"}});
  d.Add({{"b"}});
  DistributionOptions options;
  options.attributes = {"name"};
  SimilarityDistribution dist = MeasureTrueMatchSimilarity(d, options);
  EXPECT_EQ(dist.count(), 0u);
}

}  // namespace
}  // namespace sablock::core
