// Tests for the related-work LSH variants: multi-probe LSH and LSH forest
// (Section 2 / DESIGN.md extension E13).

#include <gtest/gtest.h>

#include "run_streaming.h"

#include "core/lsh_variants.h"
#include "data/cora_generator.h"
#include "eval/metrics.h"

namespace sablock::core {
namespace {

using data::Dataset;
using data::Schema;

Dataset SmallTextDataset() {
  Dataset d{Schema({"text"})};
  d.Add({{"the cascade correlation learning architecture"}}, 0);
  d.Add({{"the cascade correlation learning architecture"}}, 0);
  d.Add({{"the cascade corelation learning architecture"}}, 0);
  d.Add({{"support vector machines for text classification"}}, 1);
  d.Add({{"support vector machine for text classification"}}, 1);
  d.Add({{"completely unrelated gibberish record xyzzy"}}, 2);
  return d;
}

LshParams SmallParams() {
  LshParams p;
  p.k = 3;
  p.l = 4;
  p.q = 3;
  p.attributes = {"text"};
  p.seed = 5;
  return p;
}

TEST(MultiProbeLshTest, ZeroProbesEqualsPlainLsh) {
  Dataset d = SmallTextDataset();
  LshParams p = SmallParams();
  PairSet plain = RunStreaming(LshBlocker(p), d).DistinctPairs();
  PairSet mp = RunStreaming(MultiProbeLshBlocker(p, 0), d).DistinctPairs();
  EXPECT_EQ(plain.size(), mp.size());
  mp.ForEach([&plain](uint32_t a, uint32_t b) {
    EXPECT_TRUE(plain.Contains(a, b));
  });
}

TEST(MultiProbeLshTest, ProbingOnlyAddsCandidates) {
  Dataset d = SmallTextDataset();
  LshParams p = SmallParams();
  size_t prev = RunStreaming(LshBlocker(p), d).DistinctPairs().size();
  for (int probes : {1, 2, 3}) {
    PairSet pairs = RunStreaming(MultiProbeLshBlocker(p, probes), d).DistinctPairs();
    EXPECT_GE(pairs.size(), prev);
    prev = pairs.size();
  }
}

TEST(MultiProbeLshTest, IdenticalTextAlwaysCoBlocked) {
  Dataset d = SmallTextDataset();
  MultiProbeLshBlocker blocker(SmallParams(), 2);
  EXPECT_TRUE(RunStreaming(blocker, d).InSameBlock(0, 1));
}

TEST(MultiProbeLshTest, RecallWithFewerTablesApproachesPlainLsh) {
  // The variant's selling point: l/2 tables + probes ≈ recall of l tables.
  data::CoraGeneratorConfig config;
  config.num_entities = 30;
  config.num_records = 250;
  config.seed = 77;
  Dataset d = GenerateCoraLike(config);

  LshParams full = SmallParams();
  full.attributes = {"authors", "title"};
  full.k = 3;
  full.l = 16;
  LshParams half = full;
  half.l = 8;

  double pc_full =
      eval::Evaluate(d, RunStreaming(LshBlocker(full), d)).pc;
  double pc_half =
      eval::Evaluate(d, RunStreaming(LshBlocker(half), d)).pc;
  double pc_half_probed =
      eval::Evaluate(d, RunStreaming(MultiProbeLshBlocker(half, 3), d)).pc;
  EXPECT_GT(pc_half_probed, pc_half);
  EXPECT_GE(pc_half_probed, pc_full - 0.05);
}

TEST(MultiProbeLshTest, NameEncodesParameters) {
  EXPECT_EQ(MultiProbeLshBlocker(SmallParams(), 2).name(),
            "MP-LSH(k=3,l=4,p=2)");
}

TEST(LshForestTest, IdenticalTextAlwaysCoBlocked) {
  Dataset d = SmallTextDataset();
  LshForestBlocker forest(SmallParams(), /*max_depth=*/8,
                          /*max_block_size=*/3);
  EXPECT_TRUE(RunStreaming(forest, d).InSameBlock(0, 1));
}

TEST(LshForestTest, BlocksRespectSizeCapExceptAtMaxDepth) {
  data::CoraGeneratorConfig config;
  config.num_entities = 20;
  config.num_records = 200;
  config.seed = 78;
  Dataset d = GenerateCoraLike(config);
  LshParams p = SmallParams();
  p.attributes = {"authors", "title"};
  const size_t cap = 10;
  LshForestBlocker forest(p, /*max_depth=*/12, cap);
  BlockCollection blocks = RunStreaming(forest, d);
  // Oversized leaves can only occur when the full depth failed to split
  // (identical signatures); they should be rare.
  size_t oversized = 0;
  for (const auto& b : blocks.blocks()) {
    if (b.size() > cap) ++oversized;
  }
  EXPECT_LE(oversized, blocks.NumBlocks() / 5);
  EXPECT_GT(blocks.NumBlocks(), 0u);
}

TEST(LshForestTest, SeparatesDissimilarRecords) {
  Dataset d = SmallTextDataset();
  LshForestBlocker forest(SmallParams(), 8, 3);
  BlockCollection blocks = RunStreaming(forest, d);
  EXPECT_FALSE(blocks.InSameBlock(0, 5));
}

TEST(LshForestTest, SelfTuningFindsClusters) {
  // Near-duplicates should co-block without choosing any k.
  Dataset d = SmallTextDataset();
  LshForestBlocker forest(SmallParams(), 10, 3);
  eval::Metrics m = eval::Evaluate(d, RunStreaming(forest, d));
  EXPECT_GT(m.pc, 0.5);
}

TEST(LshForestTest, DeterministicAcrossRuns) {
  Dataset d = SmallTextDataset();
  LshForestBlocker forest(SmallParams(), 8, 3);
  EXPECT_EQ(RunStreaming(forest, d).TotalComparisons(),
            RunStreaming(forest, d).TotalComparisons());
}

TEST(LshForestTest, NameEncodesParameters) {
  EXPECT_EQ(LshForestBlocker(SmallParams(), 8, 4).name(),
            "LSHForest(l=4,d=8,max=4)");
}

}  // namespace
}  // namespace sablock::core
