// Tests for the streaming block-pipeline subsystem: the stage registry,
// the pipeline spec grammar, the built-in stages (purge / filter / cap /
// meta), flush semantics at chain boundaries, and the sharded engine
// feeding one global stage chain through its shard-order merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/pipeline_spec.h"
#include "collect_blocks.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "engine/sharded_executor.h"
#include "eval/harness.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_registry.h"
#include "pipeline/stages.h"

namespace sablock::pipeline {
namespace {

using core::Block;
using core::BlockCollection;

std::unique_ptr<PipelineStage> CreateStageOk(const std::string& spec) {
  std::unique_ptr<PipelineStage> stage;
  Status status = StageRegistry::Global().Create(spec, &stage);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  return stage;
}

Status CreateStageErr(const std::string& spec) {
  std::unique_ptr<PipelineStage> stage;
  Status status = StageRegistry::Global().Create(spec, &stage);
  EXPECT_FALSE(status.ok()) << spec << " unexpectedly succeeded";
  EXPECT_EQ(stage, nullptr);
  return status;
}

/// Feeds `input` through a freshly attached `stage` into a collection
/// and flushes.
BlockCollection RunStage(PipelineStage& stage, const std::vector<Ids>& input,
                         const data::Dataset& dataset) {
  BlockCollection out;
  stage.Attach(dataset, out);
  for (const Ids& b : input) {
    if (stage.Done()) break;
    stage.Consume(b);
  }
  stage.Flush();
  return out;
}

data::Dataset TinyDataset(size_t records = 8) {
  data::Dataset d{data::Schema({"name"})};
  for (size_t i = 0; i < records; ++i) {
    d.Add({{"r" + std::to_string(i)}}, static_cast<data::EntityId>(i));
  }
  return d;
}

data::Dataset SmallCora() {
  data::CoraGeneratorConfig config;
  config.num_records = 200;
  config.num_entities = 25;
  return data::GenerateCoraLike(config);
}

// ---------------------------------------------------------------- registry

TEST(StageRegistryTest, ListsBuiltinStagesWithParamDocs) {
  std::vector<api::BlockerInfo> infos = StageRegistry::Global().List();
  std::vector<std::string> names;
  for (const api::BlockerInfo& info : infos) {
    names.push_back(info.name);
    EXPECT_FALSE(info.summary.empty()) << info.name;
    EXPECT_FALSE(info.params.empty()) << info.name;
    for (const api::ParamDoc& param : info.params) {
      EXPECT_FALSE(param.help.empty()) << info.name << "." << param.name;
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{"cap", "filter", "meta",
                                             "progressive",
                                             "purge"}));  // sorted
  EXPECT_TRUE(StageRegistry::Global().Contains("PURGE"));  // any case
  EXPECT_TRUE(StageRegistry::Global().Contains("block-purging"));  // alias
  EXPECT_FALSE(StageRegistry::Global().Contains("nope"));
}

TEST(StageRegistryTest, CreateAndErrors) {
  EXPECT_EQ(CreateStageOk("purge:max_size=10")->name(),
            "purge(max_size=10)");
  EXPECT_EQ(CreateStageOk("meta:weight=ejs,prune=cnp")->name(),
            "meta(CNP+EJS)");
  EXPECT_EQ(CreateStageOk("cap")->spec_name(), "cap");  // defaults apply

  EXPECT_NE(CreateStageErr("warp").message().find("unknown stage"),
            std::string::npos);
  // Unknown key, bad enum value, out-of-range value, duplicate key.
  CreateStageErr("purge:max_block=10");
  CreateStageErr("meta:weight=bogus");
  CreateStageErr("filter:top_frac=1.5");
  EXPECT_NE(CreateStageErr("purge:max_size=1,max_size=2")
                .message()
                .find("more than once"),
            std::string::npos);
}

// ------------------------------------------------------------ spec grammar

TEST(PipelineSpecTest, ParsesBlockerAndStages) {
  api::PipelineSpec spec;
  ASSERT_TRUE(api::PipelineSpec::Parse(
                  "token-blocking:attrs=a+b | purge:max_size=500 | "
                  "meta:weight=cbs,prune=wep",
                  &spec)
                  .ok());
  EXPECT_EQ(spec.blocker.name, "token-blocking");
  ASSERT_EQ(spec.stages.size(), 2u);
  EXPECT_EQ(spec.stages[0].name, "purge");
  EXPECT_EQ(spec.stages[1].name, "meta");
  EXPECT_EQ(spec.stages[1].params.GetString("weight", ""), "cbs");
}

TEST(PipelineSpecTest, BareBlockerIsZeroStagePipeline) {
  api::PipelineSpec spec;
  ASSERT_TRUE(api::PipelineSpec::Parse("tblo:attrs=a", &spec).ok());
  EXPECT_EQ(spec.blocker.name, "tblo");
  EXPECT_TRUE(spec.stages.empty());
}

TEST(PipelineSpecTest, RejectsMalformedSpecs) {
  api::PipelineSpec spec;
  EXPECT_FALSE(api::PipelineSpec::Parse("", &spec).ok());
  EXPECT_FALSE(api::PipelineSpec::Parse("tblo | | purge", &spec).ok());
  EXPECT_FALSE(api::PipelineSpec::Parse("tblo |", &spec).ok());
  EXPECT_FALSE(api::PipelineSpec::Parse("| purge", &spec).ok());
  EXPECT_FALSE(api::PipelineSpec::Parse("tblo | purge:max_size", &spec).ok());
}

TEST(PipelineBuildTest, UnknownNamesFailWithContext) {
  std::unique_ptr<PipelinedBlocker> p;
  EXPECT_NE(Build("warp-drive:attrs=a | purge", &p).message().find(
                "unknown technique"),
            std::string::npos);
  EXPECT_NE(
      Build("tblo:attrs=a | warp", &p).message().find("unknown stage"),
      std::string::npos);
  EXPECT_EQ(p, nullptr);
}

TEST(PipelineBuildTest, NameComposesBlockerAndStages) {
  std::unique_ptr<PipelinedBlocker> p;
  ASSERT_TRUE(
      Build("tblo:attrs=name | purge:max_size=9 | cap:budget=5", &p).ok());
  EXPECT_EQ(p->name(), "TBlo | purge(max_size=9) | cap(budget=5)");
}

// ----------------------------------------------------------------- stages

TEST(PurgeStageTest, DropsOversizedBlocks) {
  data::Dataset d = TinyDataset();
  PurgeStage purge(3);
  BlockCollection out =
      RunStage(purge, {{0, 1}, {0, 1, 2, 3}, {4, 5, 6}}, d);
  ASSERT_EQ(out.NumBlocks(), 2u);
  EXPECT_EQ(AsVectors(out)[0], (Ids{0, 1}));
  EXPECT_EQ(AsVectors(out)[1], (Ids{4, 5, 6}));
  EXPECT_EQ(purge.purged_blocks(), 1u);
}

TEST(FilterStageTest, MinSizeStreams) {
  data::Dataset d = TinyDataset();
  FilterStage filter(3, 1.0);
  BlockCollection out =
      RunStage(filter, {{0, 1}, {0, 1, 2}, {3, 4}, {4, 5, 6, 7}}, d);
  ASSERT_EQ(out.NumBlocks(), 2u);
  EXPECT_EQ(AsVectors(out)[0], (Ids{0, 1, 2}));
  EXPECT_EQ(AsVectors(out)[1], (Ids{4, 5, 6, 7}));
}

TEST(FilterStageTest, TopFracKeepsSmallestInArrivalOrder) {
  data::Dataset d = TinyDataset();
  FilterStage filter(2, 0.5);
  // 4 blocks, keep floor(0.5*4) = 2 smallest; the two pairs win over the
  // triple and quad, in arrival order.
  BlockCollection out =
      RunStage(filter, {{0, 1, 2}, {3, 4}, {0, 1, 2, 3}, {5, 6}}, d);
  ASSERT_EQ(out.NumBlocks(), 2u);
  EXPECT_EQ(AsVectors(out)[0], (Ids{3, 4}));
  EXPECT_EQ(AsVectors(out)[1], (Ids{5, 6}));
}

TEST(FilterStageTest, TopFracTieBreaksFirstCome) {
  data::Dataset d = TinyDataset();
  FilterStage filter(2, 0.5);
  // All same size: keep the first floor(0.5*4) = 2 arrivals.
  BlockCollection out =
      RunStage(filter, {{4, 5}, {0, 1}, {2, 3}, {6, 7}}, d);
  ASSERT_EQ(out.NumBlocks(), 2u);
  EXPECT_EQ(AsVectors(out)[0], (Ids{4, 5}));
  EXPECT_EQ(AsVectors(out)[1], (Ids{0, 1}));
}

TEST(CapStageTest, StopsProducerAtBudget) {
  data::Dataset d = TinyDataset();
  BlockCollection out;
  CapStage cap(4);  // pairs carry 1 comparison, triples 3
  cap.Attach(d, out);
  EXPECT_FALSE(cap.Done());
  cap.Consume(Ids{0, 1, 2});  // 3 comparisons
  EXPECT_FALSE(cap.Done());
  cap.Consume(Ids{3, 4});  // crosses the budget; still forwarded
  EXPECT_TRUE(cap.Done());
  cap.Consume(Ids{5, 6});  // dropped
  cap.Flush();
  EXPECT_EQ(out.NumBlocks(), 2u);
  EXPECT_EQ(cap.comparisons(), 4u);
  EXPECT_EQ(cap.dropped_blocks(), 1u);
}

TEST(MetaStageTest, BuffersUntilFlushAndIgnoresDownstreamDone) {
  data::Dataset d = TinyDataset(4);
  BlockCollection out;
  MetaStage meta(MetaWeighting::kCbs, MetaPruning::kWep);
  meta.Attach(d, out);
  // Records 0-1 share two blocks, 2-3 one: WEP keeps the 0-1 edge.
  meta.Consume(Ids{0, 1});
  meta.Consume(Ids{0, 1, 2, 3});
  EXPECT_FALSE(meta.Done());  // barrier: never propagates backpressure up
  EXPECT_EQ(out.NumBlocks(), 0u);  // nothing emitted before the flush
  meta.Flush();
  EXPECT_GE(out.NumBlocks(), 1u);
  EXPECT_TRUE(out.InSameBlock(0, 1));
  EXPECT_FALSE(out.InSameBlock(1, 2));
}

// ------------------------------------------------ chains, flush semantics

TEST(PipelineTest, RunFlushesBarrierStagesButNotTheCallerSink) {
  // A sink that records whether its Flush was ever invoked.
  class FlushProbe : public core::BlockSink {
   public:
    void Consume(Block block) override { blocks.Consume(block); }
    void Flush() override { flushed = true; }
    BlockCollection blocks;
    bool flushed = false;
  };

  data::Dataset d = SmallCora();
  std::unique_ptr<PipelinedBlocker> p;
  ASSERT_TRUE(Build("token-blocking:attrs=authors+title | "
                    "purge:max_size=100 | meta:weight=cbs,prune=wep",
                    &p)
                  .ok());
  FlushProbe probe;
  p->Run(d, probe);
  // The barrier stage fired (blocks arrived), yet the flush stopped at
  // the chain boundary — a technique never flushes its caller's sink.
  EXPECT_GT(probe.blocks.NumBlocks(), 0u);
  EXPECT_FALSE(probe.flushed);
}

TEST(PipelineTest, PipelinedBlockerIsReusableAndConcurrencySafe) {
  // Clone-per-run: two Run() calls on one const pipeline must not share
  // barrier buffers.
  data::Dataset d = SmallCora();
  std::unique_ptr<PipelinedBlocker> p;
  ASSERT_TRUE(Build("token-blocking:attrs=authors+title | "
                    "purge:max_size=100 | meta:weight=cbs,prune=wep",
                    &p)
                  .ok());
  BlockCollection first;
  BlockCollection second;
  p->Run(d, first);
  p->Run(d, second);
  EXPECT_EQ(AsVectors(first), AsVectors(second));
}

TEST(PipelineTest, CapBackpressureReachesTheProducerThroughTheChain) {
  data::Dataset d = SmallCora();
  std::unique_ptr<PipelinedBlocker> p;
  ASSERT_TRUE(
      Build("token-blocking:attrs=authors+title | cap:budget=50", &p).ok());
  BlockCollection capped;
  p->Run(d, capped);
  // The producer stopped early: well under the uncapped comparison count,
  // over by at most one block.
  BlockCollection uncapped;
  std::unique_ptr<PipelinedBlocker> plain;
  ASSERT_TRUE(Build("token-blocking:attrs=authors+title", &plain).ok());
  plain->Run(d, uncapped);
  EXPECT_LT(capped.TotalComparisons(), uncapped.TotalComparisons());
  EXPECT_GE(capped.TotalComparisons(), 50u);
}

// --------------------------------------------------- eval instrumentation

TEST(RunPipelineTest, ReportsPerStageCounts) {
  data::Dataset d = SmallCora();
  std::unique_ptr<PipelinedBlocker> p;
  ASSERT_TRUE(Build("token-blocking:attrs=authors+title | "
                    "purge:max_size=50 | meta:weight=cbs,prune=wep",
                    &p)
                  .ok());
  eval::PipelineResult result =
      eval::RunPipeline(p->blocker(), p->stages(), d);
  ASSERT_EQ(result.stages.size(), 3u);
  EXPECT_EQ(result.stages[0].name, "TokenBlocking");
  EXPECT_EQ(result.stages[1].name, "purge(max_size=50)");
  EXPECT_EQ(result.stages[2].name, "meta(WEP+CBS)");
  // Purging never adds blocks; its output max obeys the bound.
  EXPECT_LE(result.stages[1].blocks, result.stages[0].blocks);
  EXPECT_LE(result.stages[1].max_block_size, 50u);
  // Meta emits pair blocks; the final collection is what stage 2 emitted.
  EXPECT_EQ(result.stages[2].max_block_size, 2u);
  EXPECT_EQ(result.blocks.NumBlocks(), result.stages[2].blocks);
  EXPECT_EQ(result.metrics.distinct_pairs,
            result.blocks.DistinctPairs().size());
  // The run is byte-identical to the uninstrumented pipeline.
  BlockCollection direct;
  p->Run(d, direct);
  EXPECT_EQ(AsVectors(direct), AsVectors(result.blocks));
}

// ------------------------------------------- sharded engine into pipeline

TEST(PipelineShardedTest, GlobalStagesCollectIsDeterministicAcrossThreads) {
  data::CoraGeneratorConfig config;
  config.num_records = 240;
  config.num_entities = 30;
  data::Dataset d = data::GenerateCoraLike(config);
  std::unique_ptr<PipelinedBlocker> p;
  ASSERT_TRUE(Build("token-blocking:attrs=authors+title | "
                    "purge:max_size=80 | meta:weight=js,prune=wnp",
                    &p)
                  .ok());
  auto run = [&](const char* spec_text) {
    engine::ExecutionSpec spec;
    EXPECT_TRUE(engine::ExecutionSpec::Parse(spec_text, &spec).ok());
    BlockCollection out;
    engine::ShardedExecutor(spec).ExecutePipeline(p->blocker(), p->stages(),
                                                  d, out);
    return out;
  };
  BlockCollection one = run("threads=1,shards=4,merge=collect");
  BlockCollection four = run("threads=4,shards=4,merge=collect");
  // Byte-identical at any thread count: the barrier stage ran once, at
  // merge, over the full cross-shard stream in shard order.
  EXPECT_EQ(AsVectors(one), AsVectors(four));
}

TEST(PipelineShardedTest, PerShardPipelineMatchesEngineRunOfWrappedBlocker) {
  // Running the PipelinedBlocker *as a technique* applies the whole
  // pipeline inside every shard — one meta graph per shard.
  data::CoraGeneratorConfig config;
  config.num_records = 240;
  config.num_entities = 30;
  data::Dataset d = data::GenerateCoraLike(config);
  std::unique_ptr<PipelinedBlocker> p;
  ASSERT_TRUE(Build("token-blocking:attrs=authors+title | "
                    "purge:max_size=80 | meta:weight=cbs,prune=cep",
                    &p)
                  .ok());
  engine::ExecutionSpec spec;
  ASSERT_TRUE(
      engine::ExecutionSpec::Parse("threads=2,shards=3", &spec).ok());
  engine::ShardedExecutor executor(spec);
  BlockCollection sharded;
  executor.Execute(*p, d, sharded);
  // Reference: run the chain manually per shard range.
  BlockCollection expected;
  for (const engine::ShardRange& range :
       engine::MakeShardRanges(d.size(), 3)) {
    data::Dataset shard = d.Slice(range.begin, range.end);
    BlockCollection local;
    p->Run(shard, local);
    for (Ids global : AsVectors(local)) {
      for (data::RecordId& id : global) id += range.begin;
      expected.Add(global);
    }
  }
  EXPECT_EQ(AsVectors(sharded), AsVectors(expected));
}

}  // namespace
}  // namespace sablock::pipeline
