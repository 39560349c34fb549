// Tests for the HARRA-style iterative LSH blocker (related-work
// extension).

#include <gtest/gtest.h>

#include "run_streaming.h"

#include "core/iterative_blocker.h"
#include "data/cora_generator.h"
#include "eval/metrics.h"

namespace sablock::core {
namespace {

using data::Dataset;
using data::Schema;

Dataset ClusteredDataset() {
  Dataset d{Schema({"text"})};
  // A "chain" cluster: A≈B, B≈C but A and C are less similar — iterative
  // merging should pull all three together.
  d.Add({{"the cascade correlation learning architecture neural"}}, 0);
  d.Add({{"the cascade correlation learning architecture"}}, 0);
  d.Add({{"cascade correlation learning"}}, 0);
  d.Add({{"support vector machines classification margin kernels"}}, 1);
  d.Add({{"support vector machine classification margin kernel"}}, 1);
  d.Add({{"completely different gibberish tokens qwertyzxcv"}}, 2);
  return d;
}

LshParams IterParams() {
  LshParams p;
  p.k = 2;
  p.l = 12;
  p.q = 3;
  p.attributes = {"text"};
  p.seed = 19;
  return p;
}

TEST(IterativeLshBlockerTest, MergesObviousDuplicates) {
  Dataset d = ClusteredDataset();
  IterativeLshBlocker blocker(IterParams(), /*merge_threshold=*/0.5,
                              /*iterations=*/3);
  BlockCollection blocks = RunStreaming(blocker, d);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  EXPECT_TRUE(blocks.InSameBlock(3, 4));
  EXPECT_FALSE(blocks.InSameBlock(0, 5));
  EXPECT_FALSE(blocks.InSameBlock(0, 3));
}

TEST(IterativeLshBlockerTest, BlocksAreDisjoint) {
  Dataset d = ClusteredDataset();
  IterativeLshBlocker blocker(IterParams(), 0.4, 3);
  BlockCollection blocks = RunStreaming(blocker, d);
  std::vector<int> seen(d.size(), 0);
  for (const auto& b : blocks.blocks()) {
    for (auto id : b) ++seen[id];
  }
  for (int count : seen) EXPECT_LE(count, 1);
}

TEST(IterativeLshBlockerTest, MoreIterationsNeverLoseMerges) {
  data::CoraGeneratorConfig config;
  config.num_entities = 20;
  config.num_records = 150;
  config.seed = 91;
  Dataset d = GenerateCoraLike(config);
  LshParams p = IterParams();
  p.attributes = {"authors", "title"};

  double pc1 = eval::Evaluate(
                   d, RunStreaming(IterativeLshBlocker(p, 0.5, 1), d)).pc;
  double pc3 = eval::Evaluate(
                   d, RunStreaming(IterativeLshBlocker(p, 0.5, 3), d)).pc;
  EXPECT_GE(pc3, pc1 - 1e-12);
}

TEST(IterativeLshBlockerTest, ThresholdOneMergesOnlyIdenticalSignatures) {
  Dataset d = ClusteredDataset();
  IterativeLshBlocker strict(IterParams(), 1.0, 2);
  BlockCollection blocks = RunStreaming(strict, d);
  // Only signature-identical records may merge; the chain cluster's
  // distinct texts stay apart.
  EXPECT_FALSE(blocks.InSameBlock(0, 2));
}

TEST(IterativeLshBlockerTest, NameEncodesParameters) {
  EXPECT_EQ(IterativeLshBlocker(IterParams(), 0.5, 3).name(),
            "HARRA(k=2,l=12,t=50%,it=3)");
}

TEST(IterativeLshBlockerDeathTest, RejectsBadConfig) {
  EXPECT_DEATH(IterativeLshBlocker(IterParams(), 1.5, 2), "CHECK");
  EXPECT_DEATH(IterativeLshBlocker(IterParams(), 0.5, 0), "CHECK");
}

}  // namespace
}  // namespace sablock::core
