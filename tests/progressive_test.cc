// Tests for the progressive layer: pair schedulers (ordering contracts,
// determinism, distinct-pair completeness, limited-schedule prefixes) and
// the `progressive` barrier stage (budget stopping, the seconds deadline,
// spec parameter validation, pipeline wiring).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collect_blocks.h"
#include "common/pair_set.h"
#include "core/blocking.h"
#include "core/budget.h"
#include "data/cora_generator.h"
#include "data/record.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_registry.h"
#include "progressive/progressive_stage.h"
#include "progressive/scheduler.h"

namespace sablock::progressive {
namespace {

using core::Block;
using core::BlockCollection;
using core::CandidatePair;

constexpr uint64_t kAll = core::Budget::kUnlimitedPairs;

// Blocks with deliberately skewed sizes and overlap: {0,1} co-occur in
// three blocks (high edge weight), the big block dilutes its pairs.
BlockCollection OverlappingBlocks() {
  BlockCollection blocks;
  blocks.Add({0, 1});
  blocks.Add({0, 1, 2});
  blocks.Add({0, 1, 2, 3, 4, 5});
  blocks.Add({6, 7});
  return blocks;
}

std::unique_ptr<PairScheduler> Make(const std::string& sched,
                                    uint64_t seed = 42) {
  std::unique_ptr<PairScheduler> scheduler;
  Status status = MakeScheduler(sched, seed, &scheduler);
  EXPECT_TRUE(status.ok()) << status.message();
  return scheduler;
}

std::set<std::pair<uint32_t, uint32_t>> AsSet(
    const std::vector<CandidatePair>& pairs) {
  std::set<std::pair<uint32_t, uint32_t>> set;
  for (const CandidatePair& p : pairs) set.insert({p.a, p.b});
  return set;
}

TEST(SchedulerTest, EverySchedulerEmitsExactlyTheDistinctPairs) {
  BlockCollection blocks = OverlappingBlocks();
  PairSet distinct = blocks.DistinctPairs();
  std::set<std::pair<uint32_t, uint32_t>> expected;
  distinct.ForEach([&](uint32_t a, uint32_t b) { expected.insert({a, b}); });

  for (const std::string& name : SchedulerNames()) {
    std::vector<CandidatePair> ordered =
        Make(name)->Schedule(/*num_records=*/8, blocks, kAll);
    EXPECT_EQ(ordered.size(), distinct.size()) << name;
    EXPECT_EQ(AsSet(ordered), expected) << name;
    for (const CandidatePair& p : ordered) {
      EXPECT_LT(p.a, p.b) << name;  // normalized a < b
    }
  }
}

TEST(SchedulerTest, SchedulesAreDeterministic) {
  BlockCollection blocks = OverlappingBlocks();
  for (const std::string& name : SchedulerNames()) {
    std::vector<CandidatePair> first =
        Make(name)->Schedule(8, blocks, kAll);
    std::vector<CandidatePair> second =
        Make(name)->Schedule(8, blocks, kAll);
    ASSERT_EQ(first.size(), second.size()) << name;
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i], second[i]) << name << " position " << i;
      EXPECT_DOUBLE_EQ(first[i].score, second[i].score) << name;
    }
  }
}

TEST(SchedulerTest, BlockSizeAscendingPutsSmallBlockPairsFirst) {
  BlockCollection blocks = OverlappingBlocks();
  std::vector<CandidatePair> ordered = Make("bsa")->Schedule(8, blocks, kAll);
  // The two 2-blocks' pairs come before any pair first seen in a larger
  // block; (0,1) is first seen in the {0,1} block.
  ASSERT_GE(ordered.size(), 2u);
  EXPECT_EQ(AsSet({ordered[0], ordered[1]}),
            (std::set<std::pair<uint32_t, uint32_t>>{{0, 1}, {6, 7}}));
}

TEST(SchedulerTest, EdgeWeightRanksTheHeavyPairFirst) {
  BlockCollection blocks = OverlappingBlocks();
  for (const char* name : {"ew-arcs", "ew-cbs", "ew-ecbs", "ew-js",
                           "ew-ejs"}) {
    std::vector<CandidatePair> ordered = Make(name)->Schedule(8, blocks, kAll);
    ASSERT_FALSE(ordered.empty()) << name;
    for (size_t i = 1; i < ordered.size(); ++i) {
      EXPECT_GE(ordered[i - 1].score, ordered[i].score)
          << name << " position " << i;
    }
  }
  // (0,1) co-occurs in three blocks — the heaviest edge under the raw
  // co-occurrence weightings. (ECBS/EJS normalize by how many blocks
  // each record appears in, which demotes ubiquitous records like 0/1.)
  for (const char* name : {"ew-arcs", "ew-cbs", "ew-js"}) {
    std::vector<CandidatePair> ordered = Make(name)->Schedule(8, blocks, kAll);
    ASSERT_FALSE(ordered.empty()) << name;
    EXPECT_EQ(ordered.front().a, 0u) << name;
    EXPECT_EQ(ordered.front().b, 1u) << name;
  }
}

TEST(SchedulerTest, RandomIsSeededAndSeedSensitive) {
  BlockCollection blocks = OverlappingBlocks();
  std::vector<CandidatePair> a = Make("random", 1)->Schedule(8, blocks, kAll);
  std::vector<CandidatePair> b = Make("random", 1)->Schedule(8, blocks, kAll);
  std::vector<CandidatePair> c = Make("random", 2)->Schedule(8, blocks, kAll);
  EXPECT_EQ(a, b);
  EXPECT_EQ(AsSet(a), AsSet(c));
  EXPECT_NE(a, c);  // different seed, different order (16 pairs: safe bet)
}

// Token blocking over a generated Cora corpus: thousands of distinct
// pairs, skewed block sizes and many tied edge weights.
BlockCollection CoraBlocks(data::Dataset* dataset) {
  data::CoraGeneratorConfig config;
  config.num_entities = 40;
  config.num_records = 400;
  config.seed = 42;
  *dataset = data::GenerateCoraLike(config);
  std::unique_ptr<pipeline::PipelinedBlocker> base;
  Status status = pipeline::Build(
      "token-blocking:attrs=authors+title | purge:max_size=100", &base);
  EXPECT_TRUE(status.ok()) << status.message();
  BlockCollection blocks;
  base->Run(*dataset, blocks);
  return blocks;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// The prefix contract: a limited schedule is byte-for-byte the head of
// the unlimited one — same pairs, same scores, same order.
TEST(SchedulerTest, LimitedScheduleIsThePrefixOfTheUnlimitedOne) {
  data::Dataset dataset;
  BlockCollection blocks = CoraBlocks(&dataset);
  for (const std::string& name : SchedulerNames()) {
    std::unique_ptr<PairScheduler> scheduler = Make(name);
    const std::vector<CandidatePair> full =
        scheduler->Schedule(dataset.size(), blocks, kAll);
    const uint64_t n = full.size();
    ASSERT_GT(n, 1000u) << name;
    for (uint64_t limit : {uint64_t{1}, uint64_t{7}, n / 100, n / 2, kAll}) {
      const std::vector<CandidatePair> head =
          scheduler->Schedule(dataset.size(), blocks, limit);
      ASSERT_EQ(head.size(), std::min(limit, n)) << name << " @" << limit;
      for (size_t i = 0; i < head.size(); ++i) {
        ASSERT_EQ(head[i], full[i]) << name << " @" << limit << " #" << i;
        ASSERT_EQ(Bits(head[i].score), Bits(full[i].score))
            << name << " @" << limit << " #" << i;
      }
    }
  }
}

TEST(SchedulerTest, UnknownNameListsTheKnownSchedulers) {
  std::unique_ptr<PairScheduler> scheduler;
  Status status = MakeScheduler("nope", 42, &scheduler);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("nope"), std::string::npos);
  EXPECT_NE(status.message().find("ew-cbs"), std::string::npos);
}

// ---------------------------------------------------------------- stage

data::Dataset SmallDataset(size_t n = 8) {
  data::Dataset d{data::Schema({"name"})};
  for (size_t i = 0; i < n; ++i) {
    data::Record r;
    r.values = {"n" + std::to_string(i)};
    d.Add(std::move(r), static_cast<data::EntityId>(i / 2));
  }
  return d;
}

// One progressive-stage run: builds the stage from `spec`, drives the
// blocks through it and keeps the stage alive for meter inspection.
struct StageRun {
  std::unique_ptr<pipeline::PipelineStage> stage;
  ProgressiveStage* progressive = nullptr;
  BlockCollection out;

  StageRun(const std::string& spec, const BlockCollection& blocks,
           const data::Dataset& dataset) {
    Status status = pipeline::StageRegistry::Global().Create(spec, &stage);
    EXPECT_TRUE(status.ok()) << status.message();
    progressive = dynamic_cast<ProgressiveStage*>(stage.get());
    EXPECT_NE(progressive, nullptr);
    stage->Attach(dataset, out);
    for (const Block& b : blocks.blocks()) stage->Consume(b);
    stage->Flush();
  }
};

TEST(ProgressiveStageTest, UnlimitedBudgetEmitsEveryDistinctPairOnce) {
  data::Dataset d = SmallDataset();
  BlockCollection blocks = OverlappingBlocks();
  StageRun run("progressive:sched=ew-cbs", blocks, d);
  PairSet distinct = blocks.DistinctPairs();
  EXPECT_EQ(run.out.NumBlocks(), distinct.size());
  for (const Block& b : run.out.blocks()) {
    ASSERT_EQ(b.size(), 2u);
    EXPECT_TRUE(distinct.Contains(b[0], b[1]));
  }
  EXPECT_EQ(run.out.DistinctPairs().size(), distinct.size());
}

TEST(ProgressiveStageTest, PairsBudgetEmitsExactlyThatPrefix) {
  data::Dataset d = SmallDataset();
  BlockCollection blocks = OverlappingBlocks();
  StageRun run("progressive:sched=ew-cbs,pairs=5", blocks, d);
  EXPECT_EQ(run.out.NumBlocks(), 5u);
  EXPECT_EQ(run.progressive->pairs_emitted(), 5u);
  ASSERT_NE(run.progressive->meter(), nullptr);
  EXPECT_TRUE(run.progressive->meter()->Exhausted());
  EXPECT_STREQ(run.progressive->meter()->ExhaustedReason(), "pairs");
  // Best-first: the budgeted prefix is the head of the unlimited order.
  StageRun full("progressive:sched=ew-cbs", blocks, d);
  const std::vector<Ids> budgeted = AsVectors(run.out);
  const std::vector<Ids> unlimited = AsVectors(full.out);
  for (size_t i = 0; i < budgeted.size(); ++i) {
    EXPECT_EQ(budgeted[i], unlimited[i]) << i;
  }
}

TEST(ProgressiveStageTest, RecallTargetStopsOnceEnoughMatchesEmitted) {
  data::Dataset d = SmallDataset();  // entities in pairs: 4 true matches
  BlockCollection blocks;
  blocks.Add({0, 1});  // match
  blocks.Add({2, 3});  // match
  blocks.Add({4, 5});  // match
  blocks.Add({0, 2});
  blocks.Add({6, 7});  // match
  StageRun run("progressive:sched=bsa,recall-target=0.5", blocks, d);
  ASSERT_NE(run.progressive->meter(), nullptr);
  EXPECT_TRUE(run.progressive->meter()->Exhausted());
  EXPECT_STREQ(run.progressive->meter()->ExhaustedReason(), "recall");
  // 2 of 4 true matches = the 0.5 target.
  EXPECT_EQ(run.progressive->meter()->Matches(), 2u);
  EXPECT_LT(run.out.NumBlocks(), blocks.DistinctPairs().size());
}

// The seconds= deadline starts at the stage's first Consume, so time
// spent buffering counts against it: a deadline that passes before the
// flush leaves at most the crossing pair to emit.
TEST(ProgressiveStageTest, SecondsDeadlineCoversBufferingBeforeFlush) {
  data::Dataset d = SmallDataset();
  BlockCollection blocks = OverlappingBlocks();
  std::unique_ptr<pipeline::PipelineStage> stage;
  Status status = pipeline::StageRegistry::Global().Create(
      "progressive:sched=ew-cbs,seconds=0.05", &stage);
  ASSERT_TRUE(status.ok()) << status.message();
  auto* progressive = dynamic_cast<ProgressiveStage*>(stage.get());
  ASSERT_NE(progressive, nullptr);
  BlockCollection out;
  stage->Attach(d, out);
  for (const Block& b : blocks.blocks()) stage->Consume(b);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  stage->Flush();
  ASSERT_NE(progressive->meter(), nullptr);
  EXPECT_STREQ(progressive->meter()->ExhaustedReason(), "seconds");
  EXPECT_LE(progressive->pairs_emitted(), 1u);
  EXPECT_LE(out.NumBlocks(), 1u);
}

TEST(ProgressiveStageTest, EmittedOrderIgnoresInputArrivalOrder) {
  data::Dataset d = SmallDataset();
  BlockCollection forward = OverlappingBlocks();
  BlockCollection reversed;
  const auto blocks = forward.blocks();
  for (size_t i = blocks.size(); i-- > 0;) reversed.Add(blocks[i]);
  StageRun run_a("progressive:sched=ew-cbs", forward, d);
  StageRun run_b("progressive:sched=ew-cbs", reversed, d);
  EXPECT_EQ(AsVectors(run_a.out), AsVectors(run_b.out));
}

TEST(ProgressiveStageTest, PipelineSpecBuildsAndRuns) {
  data::Dataset d = SmallDataset();
  std::unique_ptr<pipeline::PipelinedBlocker> built;
  Status status = pipeline::Build(
      "tblo:attrs=name | progressive:sched=bsa,pairs=3", &built);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_NE(built->name().find("progressive(sched=bsa,pairs=3)"),
            std::string::npos);
  BlockCollection out;
  built->Run(d, out);
  EXPECT_LE(out.NumBlocks(), 3u);
  for (const Block& b : out.blocks()) EXPECT_EQ(b.size(), 2u);
}

TEST(ProgressiveStageTest, SpecParameterDiagnostics) {
  auto create_error = [](const std::string& spec) {
    std::unique_ptr<pipeline::PipelineStage> stage;
    Status status = pipeline::StageRegistry::Global().Create(spec, &stage);
    EXPECT_FALSE(status.ok()) << spec;
    return status.ok() ? "" : status.message();
  };
  EXPECT_NE(create_error("progressive:sched=nope").find("nope"),
            std::string::npos);
  EXPECT_NE(create_error("progressive:pairs=0").find("pairs"),
            std::string::npos);
  EXPECT_NE(create_error("progressive:seconds=-1").find("seconds"),
            std::string::npos);
  EXPECT_NE(create_error("progressive:recall-target=2").find("recall"),
            std::string::npos);
  EXPECT_NE(create_error("progressive:bogus=1").find("bogus"),
            std::string::npos);
}

// The stage's budget terms speak the one Budget grammar: it accepts what
// --budget accepts (inf/unlimited pairs) and rejects what --budget
// rejects, with Budget::Parse's own diagnostic.
TEST(ProgressiveStageTest, BudgetTermsFollowBudgetParse) {
  for (const char* term : {"pairs=unlimited", "pairs=inf"}) {
    std::unique_ptr<pipeline::PipelineStage> stage;
    Status status = pipeline::StageRegistry::Global().Create(
        std::string("progressive:") + term, &stage);
    ASSERT_TRUE(status.ok()) << term << ": " << status.message();
    auto* progressive = dynamic_cast<ProgressiveStage*>(stage.get());
    ASSERT_NE(progressive, nullptr);
    EXPECT_TRUE(progressive->budget().unlimited()) << term;
  }
  for (const char* term : {"seconds=0", "recall-target=0"}) {
    std::unique_ptr<pipeline::PipelineStage> stage;
    Status status = pipeline::StageRegistry::Global().Create(
        std::string("progressive:") + term, &stage);
    ASSERT_FALSE(status.ok()) << term;
    core::Budget unused;
    const std::string expected =
        core::Budget::Parse(term, &unused).message();
    EXPECT_NE(status.message().find(expected), std::string::npos)
        << status.message();
  }
}

}  // namespace
}  // namespace sablock::progressive
