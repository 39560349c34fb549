// Tests for the pipeline chain as the instrument of a run: the per-step
// counts every Chain reports (generator, then each stage) against counting
// sinks at the same points of a hand-built reference chain, the step
// seconds against the run's wall time, and the process-wide
// blocks_emitted / comparisons_emitted series — single-threaded and
// through the sharded engine (the TSan target for shard tasks racing the
// cold feature build ahead of the chain's observers).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "collect_blocks.h"
#include "core/block_sink.h"
#include "data/cora_generator.h"
#include "engine/sharded_executor.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"

namespace sablock::pipeline {
namespace {

using core::BlockCollection;
using core::PairCountingSink;

data::Dataset Corpus() {
  data::CoraGeneratorConfig config;
  config.num_records = 800;
  config.num_entities = 80;
  return data::GenerateCoraLike(config);
}

/// Every registered stage, alone or behind a purge: the streaming ones
/// (purge, filter:min_size, cap), the barriers (filter:top_frac, meta,
/// progressive), meta under a binding cap, and all of them in one chain.
const char* const kStages[] = {
    "",
    "purge:max_size=30",
    "filter:min_size=3",
    "filter:top_frac=0.5",
    "cap:budget=300",
    "purge:max_size=50 | meta:weight=cbs,prune=wnp",
    "purge:max_size=50 | meta:weight=cbs,prune=wnp | cap:budget=700",
    "purge:max_size=50 | progressive:sched=ew-cbs,pairs=400",
    "purge:max_size=50 | filter:min_size=3 | filter:top_frac=0.8 | "
    "cap:budget=5000 | meta:weight=js,prune=wep | progressive:sched=ew-cbs",
};

/// The same stages cloned and wired by hand, with a PairCountingSink
/// after the generator and after every stage.
struct ReferenceChain {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  std::vector<std::unique_ptr<PairCountingSink>> counters;  // per step

  ReferenceChain(const Pipeline& pipeline, const data::Dataset& dataset,
                 core::BlockSink& out) {
    const size_t n = pipeline.size();
    stages.resize(n);
    counters.resize(n + 1);
    core::BlockSink* next = &out;
    for (size_t k = n + 1; k-- > 0;) {
      counters[k] = std::make_unique<PairCountingSink>(*next);
      if (k == 0) break;
      stages[k - 1] = pipeline.stages()[k - 1]->Clone();
      stages[k - 1]->Attach(dataset, *counters[k]);
      next = stages[k - 1].get();
    }
  }
};

/// blocks_emitted and comparisons_emitted per stage label, right now.
std::map<std::string, std::pair<uint64_t, uint64_t>> StageSeries() {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  std::map<std::string, std::pair<uint64_t, uint64_t>> series;
  for (const obs::FamilySnapshot& family : snapshot.families) {
    const bool blocks = family.name == "blocks_emitted";
    if (!blocks && family.name != "comparisons_emitted") continue;
    for (const obs::SampleSnapshot& sample : family.samples) {
      auto& entry = series[sample.label_value];
      (blocks ? entry.first : entry.second) = sample.counter;
    }
  }
  return series;
}

/// Builds `spec`; null, and a test failure, if it does not build.
std::unique_ptr<PipelinedBlocker> MustBuild(const std::string& spec) {
  std::unique_ptr<PipelinedBlocker> built;
  Status status = Build(spec, &built);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  return built;
}

/// Runs token blocking and `spec_text`'s stages single-threaded and
/// through the sharded engine, and checks every step.
void CheckSteps(const char* spec_text) {
  const data::Dataset dataset = Corpus();
  const std::string stages = spec_text;
  const std::string spec =
      "token-blocking:attrs=authors+title" +
      (stages.empty() ? std::string() : " | " + stages);
  const std::unique_ptr<PipelinedBlocker> built = MustBuild(spec);
  ASSERT_NE(built, nullptr);
  const PipelinedBlocker& pipelined = *built;
  const Pipeline& pipeline = pipelined.stages();

  for (const char* engine : {"", "threads=4,shards=8,merge=collect"}) {
    SCOPED_TRACE(spec + (*engine ? " @ " + std::string(engine) : ""));
    engine::ExecutionSpec execution;
    ASSERT_TRUE(engine::ExecutionSpec::Parse(engine, &execution).ok());

    const auto before = StageSeries();
    const eval::PipelineResult result =
        eval::RunPipeline(pipelined.blocker(), pipeline, dataset, execution);
    const auto after = StageSeries();

    ASSERT_EQ(result.stages.size(), pipeline.size() + 1);
    EXPECT_EQ(result.stages[0].name, pipelined.blocker().name());
    for (size_t k = 1; k < result.stages.size(); ++k) {
      EXPECT_EQ(result.stages[k].name, pipeline.stages()[k - 1]->name());
    }
    EXPECT_EQ(result.stages.back().blocks, result.blocks.NumBlocks());

    // The steps account for the whole run.
    double sum = 0.0;
    for (const StepCounts& step : result.stages) {
      EXPECT_GE(step.seconds, 0.0) << step.name;
      sum += step.seconds;
    }
    EXPECT_NEAR(sum, result.seconds, 0.01 * result.seconds + 100e-6);

    // The registry series grew by exactly the step counts, the generator
    // under stage="generator".
    std::map<std::string, std::pair<uint64_t, uint64_t>> expected_growth;
    for (size_t k = 0; k < result.stages.size(); ++k) {
      const std::string label =
          k == 0 ? "generator" : pipeline.stages()[k - 1]->spec_name();
      expected_growth[label].first += result.stages[k].blocks;
      expected_growth[label].second += result.stages[k].comparisons;
    }
    for (const auto& [label, growth] : expected_growth) {
      const auto old_it = before.find(label);
      const std::pair<uint64_t, uint64_t> old =
          old_it == before.end() ? std::pair<uint64_t, uint64_t>{0, 0}
                                 : old_it->second;
      const std::pair<uint64_t, uint64_t>& now = after.at(label);
      EXPECT_EQ(now.first - old.first, growth.first) << label;
      EXPECT_EQ(now.second - old.second, growth.second) << label;
    }

    data::Dataset cold = dataset.ColdCopy();
    BlockCollection out;
    ReferenceChain reference(pipeline, cold, out);
    engine::ShardedExecutor(execution).Execute(pipelined.blocker(), cold,
                                               *reference.counters[0]);
    reference.counters[0]->Flush();
    for (size_t k = 0; k < result.stages.size(); ++k) {
      const PairCountingSink& counted = *reference.counters[k];
      EXPECT_EQ(result.stages[k].blocks, counted.num_blocks()) << k;
      EXPECT_EQ(result.stages[k].comparisons, counted.comparisons()) << k;
      EXPECT_EQ(result.stages[k].max_block_size, counted.max_block_size())
          << k;
    }
    EXPECT_EQ(AsVectors(result.blocks), AsVectors(out));
  }
}

TEST(PipelineStepsTest, GeneratorOnly) { CheckSteps(kStages[0]); }
TEST(PipelineStepsTest, Purge) { CheckSteps(kStages[1]); }
TEST(PipelineStepsTest, StreamingFilter) { CheckSteps(kStages[2]); }
TEST(PipelineStepsTest, BarrierFilter) { CheckSteps(kStages[3]); }
TEST(PipelineStepsTest, Cap) { CheckSteps(kStages[4]); }
TEST(PipelineStepsTest, Meta) { CheckSteps(kStages[5]); }
TEST(PipelineStepsTest, MetaUnderCap) { CheckSteps(kStages[6]); }
TEST(PipelineStepsTest, Progressive) { CheckSteps(kStages[7]); }
TEST(PipelineStepsTest, EveryStageInOneChain) { CheckSteps(kStages[8]); }

TEST(PipelineStepsTest, CapBindsInTheCheckedModes) {
  // The Cap case above is only meaningful if the budget cuts the stream.
  const std::unique_ptr<PipelinedBlocker> built = MustBuild(
      std::string("token-blocking:attrs=authors+title | ") + kStages[4]);
  ASSERT_NE(built, nullptr);
  const eval::PipelineResult result =
      eval::RunPipeline(built->blocker(), built->stages(), Corpus());
  BlockCollection uncapped;
  built->blocker().Run(Corpus(), uncapped);
  EXPECT_LT(result.stages[1].comparisons, uncapped.TotalComparisons());
  EXPECT_LT(result.stages[0].blocks, uncapped.NumBlocks());
}

TEST(PipelineStepsTest, MetaStopsAtABindingCap) {
  // The MetaUnderCap case above is only meaningful if the cap cuts the
  // meta stage's output. Each meta block is one comparison, so both the
  // meta step and the cap step emit exactly the budget when the meta
  // stage honours the cap's Done(), single-threaded and sharded.
  const uint64_t budget = 700;
  const data::Dataset dataset = Corpus();
  const std::unique_ptr<PipelinedBlocker> uncapped = MustBuild(
      "token-blocking:attrs=authors+title | purge:max_size=50 | "
      "meta:weight=cbs,prune=wnp");
  ASSERT_NE(uncapped, nullptr);
  const eval::PipelineResult full = eval::RunPipeline(
      uncapped->blocker(), uncapped->stages(), dataset);
  ASSERT_LT(budget, full.stages[2].blocks);

  const std::unique_ptr<PipelinedBlocker> built = MustBuild(
      std::string("token-blocking:attrs=authors+title | ") + kStages[6]);
  ASSERT_NE(built, nullptr);
  for (const char* engine : {"", "threads=4,shards=8,merge=collect"}) {
    SCOPED_TRACE(engine);
    engine::ExecutionSpec execution;
    ASSERT_TRUE(engine::ExecutionSpec::Parse(engine, &execution).ok());
    const eval::PipelineResult result = eval::RunPipeline(
        built->blocker(), built->stages(), dataset, execution);
    ASSERT_EQ(result.stages.size(), 4u);
    EXPECT_EQ(result.stages[2].blocks, budget);
    EXPECT_EQ(result.stages[3].blocks, budget);
    EXPECT_EQ(result.blocks.NumBlocks(), budget);
  }
}

TEST(PipelineStepsTest, ChainFlushNamesTheProducerGenerator) {
  // A chain driven by hand (no technique) reports its producer step
  // under the registry label's name.
  const data::Dataset dataset = Corpus();
  const std::unique_ptr<PipelinedBlocker> built =
      MustBuild("token-blocking:attrs=authors+title | purge:max_size=30");
  ASSERT_NE(built, nullptr);
  BlockCollection generated;
  built->blocker().Run(dataset, generated);
  const uint64_t generated_blocks = generated.NumBlocks();
  BlockCollection out;
  Chain chain = built->stages().Instantiate(dataset, out);
  generated.Drain(chain.head());
  const std::vector<StepCounts> steps = chain.Flush();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].name, "generator");
  EXPECT_EQ(steps[0].blocks, generated_blocks);
  EXPECT_EQ(steps[1].blocks, out.NumBlocks());
}

}  // namespace
}  // namespace sablock::pipeline
