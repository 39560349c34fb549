#include "engine/sharded_executor.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "collect_blocks.h"
#include "common/check.h"
#include "core/block_sink.h"
#include "core/blocking.h"
#include "data/voter_generator.h"
#include "engine/execution_spec.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "features/feature_store.h"
#include "gtest/gtest.h"
#include "run_streaming.h"

namespace sablock::engine {
namespace {

using core::BlockCollection;
using core::BlockingTechnique;

data::Dataset SmallVoter(size_t records = 2000) {
  data::VoterGeneratorConfig config;
  config.num_records = records;
  config.seed = 97;
  return GenerateVoterLike(config);
}

std::unique_ptr<BlockingTechnique> FromSpec(const std::string& spec) {
  std::unique_ptr<BlockingTechnique> technique;
  Status status = api::BlockerRegistry::Global().Create(spec, &technique);
  // Abort (not EXPECT) so a bad spec fails with the Status message
  // instead of a null dereference in the calling test.
  SABLOCK_CHECK_MSG(status.ok(), status.message().c_str());
  return technique;
}

// --- MakeShardRanges ------------------------------------------------------

TEST(MakeShardRangesTest, PartitionsAllRecordsContiguously) {
  std::vector<ShardRange> ranges = MakeShardRanges(103, 8);
  ASSERT_EQ(ranges.size(), 8u);
  EXPECT_EQ(ranges.front().begin, 0u);
  EXPECT_EQ(ranges.back().end, 103u);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);
  }
  // Near-equal: sizes differ by at most one, longer shards first.
  for (const ShardRange& r : ranges) {
    EXPECT_GE(r.size(), 103u / 8);
    EXPECT_LE(r.size(), 103u / 8 + 1);
  }
}

TEST(MakeShardRangesTest, MoreShardsThanRecordsYieldsOnePerRecord) {
  std::vector<ShardRange> ranges = MakeShardRanges(3, 16);
  ASSERT_EQ(ranges.size(), 3u);
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].begin, i);
    EXPECT_EQ(ranges[i].size(), 1u);
  }
}

TEST(MakeShardRangesTest, EmptyDatasetYieldsNoRanges) {
  EXPECT_TRUE(MakeShardRanges(0, 4).empty());
}

// --- ExecutionSpec --------------------------------------------------------

TEST(ExecutionSpecTest, ParsesFullSpec) {
  ExecutionSpec spec;
  Status status =
      ExecutionSpec::Parse("threads=4,shards=8,merge=collect", &spec);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(spec.threads, 4);
  EXPECT_EQ(spec.shards, 8);
}

TEST(ExecutionSpecTest, RejectsStreamMerge) {
  // "merge=collect", the one merge's name, parses; any other is an error.
  ExecutionSpec spec;
  Status status = ExecutionSpec::Parse("threads=4,merge=stream", &spec);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("'merge'"), std::string::npos)
      << status.message();
}

TEST(ExecutionSpecTest, EmptyTextIsDefaultSpec) {
  ExecutionSpec spec;
  ASSERT_TRUE(ExecutionSpec::Parse("", &spec).ok());
  EXPECT_EQ(spec.threads, 1);
  EXPECT_EQ(spec.shards, 0);
  EXPECT_EQ(spec.ResolvedShards(), 1);
}

TEST(ExecutionSpecTest, ShardsZeroFollowsThreads) {
  ExecutionSpec spec;
  ASSERT_TRUE(ExecutionSpec::Parse("threads=6", &spec).ok());
  EXPECT_EQ(spec.ResolvedShards(), 6);
}

TEST(ExecutionSpecTest, ThreadsAreBounded) {
  ExecutionSpec spec;
  ASSERT_TRUE(ExecutionSpec::Parse("threads=256", &spec).ok());
  EXPECT_EQ(spec.threads, 256);
  const Status status = ExecutionSpec::Parse("threads=257", &spec);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "param 'threads': must be in [1, 256]");
  EXPECT_EQ(spec.threads, 256);  // a failed parse leaves the spec alone
}

TEST(ExecutionSpecTest, RejectsBadInput) {
  ExecutionSpec spec;
  EXPECT_FALSE(ExecutionSpec::Parse("threads=0", &spec).ok());
  EXPECT_FALSE(ExecutionSpec::Parse("shards=-1", &spec).ok());
  EXPECT_FALSE(ExecutionSpec::Parse("merge=sideways", &spec).ok());
  EXPECT_FALSE(ExecutionSpec::Parse("workers=3", &spec).ok());
  EXPECT_FALSE(ExecutionSpec::Parse("threads", &spec).ok());
}

// --- ShardedExecutor ------------------------------------------------------

TEST(ShardedExecutorTest, SingleShardMatchesDirectRun) {
  data::Dataset dataset = SmallVoter(500);
  std::unique_ptr<BlockingTechnique> technique =
      FromSpec("tblo:attrs=first_name+last_name");
  BlockCollection direct = RunStreaming(*technique, dataset);

  ExecutionSpec spec;  // threads=1, shards -> 1
  BlockCollection sharded;
  ShardedExecutor(spec).Execute(*technique, dataset, sharded);
  EXPECT_EQ(AsVectors(sharded), AsVectors(direct));
}

TEST(ShardedExecutorTest, CollectMergeIsDeterministicAcrossThreadCounts) {
  // Each run starts from a cold feature store, so the shards also race
  // the cooperative, multi-chunk feature build: the block sequence must
  // depend on the shard count alone, and match a run over built features.
  data::Dataset dataset = SmallVoter(5000);
  std::unique_ptr<BlockingTechnique> technique =
      FromSpec("sa-lsh:domain=voter,k=4,l=8,q=2,w=5,mode=or");

  ExecutionSpec base;
  base.threads = 1;
  base.shards = 8;
  BlockCollection reference;
  ShardedExecutor(base).Execute(*technique, dataset.ColdCopy(), reference);
  EXPECT_GT(reference.NumBlocks(), 0u);

  for (int threads : {2, 4, 8}) {
    ExecutionSpec spec = base;
    spec.threads = threads;
    const data::Dataset cold = dataset.ColdCopy();
    BlockCollection merged;
    ShardedExecutor(spec).Execute(*technique, cold, merged);
    // Bit-identical, including block order (stable shard/block ordering).
    EXPECT_EQ(AsVectors(merged), AsVectors(reference))
        << "threads=" << threads;
    // The shards raced the band column, built once; sa-lsh reads no
    // signature column.
    const features::FeatureStore::Catalog built =
        cold.features().store().catalog();
    EXPECT_EQ(built.bands.size(), 1u);
    EXPECT_EQ(built.signatures.size(), 0u);
    BlockCollection warm;
    ShardedExecutor(spec).Execute(*technique, cold, warm);
    EXPECT_EQ(AsVectors(warm), AsVectors(reference))
        << "warm, threads=" << threads;
  }
}

TEST(ShardedExecutorTest, HonoursBudgetedSinkBackpressure) {
  // The merge stops at the block that crosses the budget: the sink gets
  // a prefix of the unbudgeted sequence, the same at every thread count.
  data::Dataset dataset = SmallVoter(800);
  std::unique_ptr<BlockingTechnique> technique =
      FromSpec("tblo:attrs=last_name");
  ExecutionSpec spec;
  spec.shards = 8;
  BlockCollection full;
  ShardedExecutor(spec).Execute(*technique, dataset, full);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    spec.threads = threads;
    BlockCollection collection;
    core::BudgetedSink capped(
        collection,
        std::make_shared<core::BudgetMeter>(core::Budget{.pairs = 10}));
    ShardedExecutor(spec).Execute(*technique, dataset, capped);
    EXPECT_TRUE(capped.Done());
    EXPECT_GE(capped.meter()->Spent(), 10u);
    EXPECT_EQ(collection.TotalComparisons(), capped.meter()->Spent());
    EXPECT_EQ(capped.dropped_blocks(), 0u);
    ASSERT_LT(collection.NumBlocks(), full.NumBlocks());
    const std::vector<Ids> kept = AsVectors(collection);
    const std::vector<Ids> all = AsVectors(full);
    EXPECT_TRUE(std::equal(kept.begin(), kept.end(), all.begin()));
  }
}

TEST(ShardedExecutorTest, EmptyDatasetProducesNoBlocks) {
  data::Dataset dataset = SmallVoter(1).Prefix(0);
  std::unique_ptr<BlockingTechnique> technique =
      FromSpec("tblo:attrs=last_name");
  ExecutionSpec spec;
  spec.threads = 4;
  spec.shards = 4;
  BlockCollection merged;
  ShardedExecutor(spec).Execute(*technique, dataset, merged);
  EXPECT_EQ(merged.NumBlocks(), 0u);
}

// --- determinism of Metrics (the reproducibility guarantee) ---------------

void ExpectIdenticalMetricsAcrossThreadCounts(const std::string& spec_text) {
  SCOPED_TRACE(spec_text);
  data::Dataset dataset = SmallVoter(2000);
  std::unique_ptr<BlockingTechnique> technique = FromSpec(spec_text);

  ExecutionSpec spec;
  spec.shards = 8;  // pinned: the computation is defined by the shards
  spec.threads = 1;
  eval::TechniqueResult reference =
      eval::RunTechnique(*technique, dataset, spec);

  for (int threads : {2, 8}) {
    spec.threads = threads;
    eval::TechniqueResult result =
        eval::RunTechnique(*technique, dataset, spec);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(result.metrics.pc, reference.metrics.pc);
    EXPECT_EQ(result.metrics.pq, reference.metrics.pq);
    EXPECT_EQ(result.metrics.rr, reference.metrics.rr);
    EXPECT_EQ(result.metrics.fm, reference.metrics.fm);
    EXPECT_EQ(result.metrics.distinct_pairs,
              reference.metrics.distinct_pairs);
    EXPECT_EQ(result.metrics.true_pairs, reference.metrics.true_pairs);
    EXPECT_EQ(result.metrics.total_comparisons,
              reference.metrics.total_comparisons);
    EXPECT_EQ(result.metrics.num_blocks, reference.metrics.num_blocks);
    EXPECT_EQ(result.metrics.max_block_size,
              reference.metrics.max_block_size);
  }
}

TEST(EngineDeterminismTest, SaLshMetricsIdenticalAtOneTwoEightThreads) {
  ExpectIdenticalMetricsAcrossThreadCounts(
      "sa-lsh:domain=voter,k=4,l=8,q=2,w=5,mode=or");
}

TEST(EngineDeterminismTest,
     StandardBlockingMetricsIdenticalAtOneTwoEightThreads) {
  ExpectIdenticalMetricsAcrossThreadCounts(
      "tblo:attrs=first_name+last_name");
}

}  // namespace
}  // namespace sablock::engine
