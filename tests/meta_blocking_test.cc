// Tests for token blocking and the meta-blocking graph (weighting schemes
// and pruning algorithms of the Fig. 12 comparison), run as the
// `token-blocking | purge | meta` pipeline and through the registered
// `meta` technique.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "run_streaming.h"

#include "api/registry.h"
#include "common/string_util.h"
#include "eval/metrics.h"
#include "pipeline/meta_graph.h"

namespace sablock::pipeline {
namespace {

using core::BlockCollection;
using data::Dataset;
using data::Schema;

Dataset TokenDataset() {
  Dataset d{Schema({"name"})};
  d.Add({{"alpha beta gamma"}}, 0);
  d.Add({{"alpha beta delta"}}, 0);
  d.Add({{"alpha zzz"}}, 1);
  d.Add({{"omega psi"}}, 2);
  d.Add({{"omega psi chi"}}, 2);
  return d;
}

BlockCollection TokenBlocks(const Dataset& d, size_t max_block_size) {
  return RunSpec("token-blocking:attrs=name | purge:max_size=" +
                     std::to_string(max_block_size),
                 d);
}

BlockCollection Prune(const Dataset& d, const BlockCollection& input,
                      MetaWeighting w, MetaPruning p) {
  BlockCollection pruned;
  MetaPrune(d.size(), input, w, p, pruned);
  return pruned;
}

BlockCollection RunMeta(const Dataset& d, MetaWeighting w, MetaPruning p) {
  return RunSpec("token-blocking:attrs=name | purge:max_size=500 | "
                 "meta:weight=" +
                     ToLower(MetaWeightingName(w)) +
                     ",prune=" + ToLower(MetaPruningName(p)),
                 d);
}

TEST(TokenBlockingTest, OneBlockPerSharedToken) {
  Dataset d = TokenDataset();
  BlockCollection blocks = TokenBlocks(d, 100);
  // Shared tokens: alpha{0,1,2}, beta{0,1}, omega{3,4}, psi{3,4}.
  EXPECT_EQ(blocks.NumBlocks(), 4u);
  EXPECT_TRUE(blocks.InSameBlock(0, 1));
  EXPECT_TRUE(blocks.InSameBlock(3, 4));
  EXPECT_FALSE(blocks.InSameBlock(0, 3));
}

TEST(TokenBlockingTest, PurgesOversizedBlocks) {
  Dataset d = TokenDataset();
  BlockCollection blocks = TokenBlocks(d, /*max_block_size=*/2);
  // "alpha" block has 3 members and is purged.
  EXPECT_EQ(blocks.NumBlocks(), 3u);
  EXPECT_FALSE(blocks.InSameBlock(0, 2));
}

TEST(MetaBlockingTest, OutputIsSubsetOfInputPairs) {
  Dataset d = TokenDataset();
  BlockCollection input = TokenBlocks(d, 100);
  PairSet input_pairs = input.DistinctPairs();
  for (MetaPruning pruning : {MetaPruning::kWep, MetaPruning::kCep,
                              MetaPruning::kWnp, MetaPruning::kCnp}) {
    PairSet pruned =
        Prune(d, input, MetaWeighting::kCbs, pruning).DistinctPairs();
    EXPECT_LE(pruned.size(), input_pairs.size());
    pruned.ForEach([&input_pairs](uint32_t a, uint32_t b) {
      EXPECT_TRUE(input_pairs.Contains(a, b));
    });
  }
}

TEST(MetaBlockingTest, WepKeepsStrongEdges) {
  Dataset d = TokenDataset();
  // Records 0-1 share two blocks (alpha, beta); 0-2 share one (alpha);
  // 3-4 share two (omega, psi). Mean CBS weight = (2+1+1+2)/4 = 1.5:
  // WEP keeps only the weight-2 edges.
  BlockCollection pruned = RunMeta(d, MetaWeighting::kCbs, MetaPruning::kWep);
  EXPECT_TRUE(pruned.InSameBlock(0, 1));
  EXPECT_TRUE(pruned.InSameBlock(3, 4));
  EXPECT_FALSE(pruned.InSameBlock(0, 2));
  EXPECT_FALSE(pruned.InSameBlock(1, 2));
}

TEST(MetaBlockingTest, CepRespectsBudget) {
  Dataset d = TokenDataset();
  BlockCollection input = TokenBlocks(d, 100);
  size_t budget = static_cast<size_t>(input.TotalBlockSizes() / 2);
  BlockCollection pruned =
      Prune(d, input, MetaWeighting::kArcs, MetaPruning::kCep);
  EXPECT_LE(pruned.NumBlocks(), budget);
}

TEST(MetaBlockingTest, AllWeightingSchemesProducePositiveWeights) {
  Dataset d = TokenDataset();
  for (MetaWeighting w :
       {MetaWeighting::kArcs, MetaWeighting::kCbs, MetaWeighting::kEcbs,
        MetaWeighting::kJs, MetaWeighting::kEjs}) {
    BlockCollection pruned = RunMeta(d, w, MetaPruning::kWep);
    // WEP with any scheme keeps at least the strongest edge.
    EXPECT_GE(pruned.NumBlocks(), 1u) << MetaWeightingName(w);
  }
}

TEST(MetaBlockingTest, PrunedBlocksArePairs) {
  Dataset d = TokenDataset();
  BlockCollection pruned = RunMeta(d, MetaWeighting::kJs, MetaPruning::kWnp);
  for (const auto& b : pruned.blocks()) {
    EXPECT_EQ(b.size(), 2u);
  }
}

TEST(MetaBlockingTest, CnpKeepsTopEdgesPerNode) {
  Dataset d = TokenDataset();
  BlockCollection pruned = RunMeta(d, MetaWeighting::kCbs, MetaPruning::kCnp);
  // The strong within-entity edges must survive node-local top-k.
  EXPECT_TRUE(pruned.InSameBlock(0, 1));
  EXPECT_TRUE(pruned.InSameBlock(3, 4));
}

TEST(MetaBlockingTest, ImprovesPqStarOverInput) {
  Dataset d = TokenDataset();
  BlockCollection input = TokenBlocks(d, 100);
  eval::Metrics before = eval::Evaluate(d, input);
  eval::Metrics after = eval::Evaluate(
      d, Prune(d, input, MetaWeighting::kCbs, MetaPruning::kWep));
  EXPECT_GE(after.pq_star, before.pq_star);
}

TEST(MetaBlockingTest, RegisteredTechniqueIsNamedByItsPipeline) {
  std::unique_ptr<core::BlockingTechnique> meta;
  ASSERT_TRUE(api::BlockerRegistry::Global()
                  .Create("meta:weighting=ejs,pruning=cnp,attrs=a", &meta)
                  .ok());
  EXPECT_EQ(meta->name(),
            "TokenBlocking | purge(max_size=500) | meta(CNP+EJS)");
}

TEST(MetaBlockingTest, EmptyDatasetYieldsNoBlocks) {
  Dataset d{Schema({"name"})};
  EXPECT_EQ(RunMeta(d, MetaWeighting::kCbs, MetaPruning::kWep).NumBlocks(),
            0u);
}

}  // namespace
}  // namespace sablock::pipeline
