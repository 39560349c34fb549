// The sharded engine's sink layer: OffsetSink's id translation, and the
// merge contract every sharded run keeps — ShardedExecutor::Execute emits
// the shard-order concatenation of the per-slice runs, whatever the
// thread count, and a budgeted sink receives a prefix of that sequence.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/blocker_spec.h"
#include "api/registry.h"
#include "core/block_sink.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "engine/sharded_executor.h"
#include "gtest/gtest.h"

namespace sablock::engine {
namespace {

using core::Block;
using core::BlockCollection;
using core::BudgetedSink;
using core::BudgetMeter;

std::shared_ptr<BudgetMeter> PairsMeter(uint64_t pairs) {
  return std::make_shared<BudgetMeter>(core::Budget{.pairs = pairs});
}

TEST(OffsetSinkTest, TranslatesShardLocalIds) {
  BlockCollection collection;
  OffsetSink sink(collection, /*offset=*/100);
  sink.Consume({0, 3, 7});
  ASSERT_EQ(collection.NumBlocks(), 1u);
  EXPECT_EQ(collection.blocks()[0], (Block{100, 103, 107}));
}

TEST(OffsetSinkTest, PropagatesDone) {
  BlockCollection collection;
  BudgetedSink capped(collection, PairsMeter(1));
  OffsetSink sink(capped, 10);
  EXPECT_FALSE(sink.Done());
  sink.Consume({0, 1});
  EXPECT_TRUE(sink.Done());
}

// One spec per registered technique, with small parameters so the sweep
// stays fast; the test checks that the list covers the registry.
const char* const kSpecs[] = {
    "tblo:attrs=authors+title",
    "token-blocking:attrs=authors+title",
    "sor-a:window=3,attrs=authors+title",
    "sor-ii:window=3,attrs=authors+title",
    "sor-mp:window=3,attrs=authors+title",
    "asor:sim=jaro_winkler,threshold=0.8,max-block=50,attrs=authors+title",
    "qgram:q=2,threshold=0.8,max-keys=64,attrs=title",
    "sua:min-suffix=4,max-block=20,attrs=authors+title",
    "suas:min-suffix=4,max-block=20,attrs=title",
    "rsua:min-suffix=4,max-block=20,sim=jaro_winkler,threshold=0.9,"
    "attrs=authors+title",
    "stmt:threshold=0.9,grid=100,dim=15,seed=73,attrs=authors+title",
    "stmnn:nn=5,grid=100,dim=15,seed=73,attrs=authors+title",
    "cath:sim=jaccard,loose=0.4,tight=0.8,seed=31,attrs=authors+title",
    "cann:sim=tfidf,n1=10,n2=5,seed=31,attrs=authors+title",
    "meta:weighting=cbs,pruning=wep,max-block=500,attrs=authors+title",
    "lsh:k=2,l=8,q=3,seed=7,attrs=authors+title",
    "sa-lsh:k=2,l=8,q=3,seed=7,w=5,mode=or,domain=bib,attrs=authors+title",
    "mp-lsh:k=2,l=8,q=3,seed=7,probes=2,attrs=authors+title",
    "forest:k=2,l=8,q=3,seed=7,depth=10,max-block=25,attrs=authors+title",
    "harra:k=2,l=8,q=3,seed=7,merge-threshold=0.5,iterations=2,"
    "attrs=authors+title",
};

TEST(MergeContractTest, SpecsCoverEveryRegisteredTechnique) {
  std::vector<std::string> names;
  for (const char* spec : kSpecs) {
    api::BlockerSpec parsed;
    ASSERT_TRUE(api::BlockerSpec::Parse(spec, &parsed).ok()) << spec;
    names.push_back(parsed.name);
  }
  auto listed = [&names](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const api::BlockerInfo& info : api::BlockerRegistry::Global().List()) {
    EXPECT_TRUE(listed(info.name) ||
                std::any_of(info.aliases.begin(), info.aliases.end(), listed))
        << info.name << " has no spec in kSpecs";
  }
}

TEST(MergeContractTest, ExecuteIsTheShardOrderConcatenationOfSliceRuns) {
  constexpr int kShards = 4;
  constexpr uint64_t kBudget = 25;
  data::CoraGeneratorConfig config;
  config.num_records = 100;
  config.num_entities = 12;
  const data::Dataset dataset = data::GenerateCoraLike(config);

  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    std::unique_ptr<core::BlockingTechnique> technique;
    ASSERT_TRUE(
        api::BlockerRegistry::Global().Create(spec, &technique).ok());

    // The contract's reference: each slice run on its own, ids offset
    // back to the dataset, concatenated in shard order.
    std::vector<Block> expected;
    for (const ShardRange& range :
         MakeShardRanges(dataset.size(), kShards)) {
      BlockCollection local;
      technique->Run(dataset.Slice(range.begin, range.end), local);
      for (Block block : local.blocks()) {
        for (data::RecordId& id : block) id += range.begin;
        expected.push_back(std::move(block));
      }
    }
    // The budget keeps the shortest prefix whose comparisons reach it
    // (the crossing block included), or everything.
    size_t kept = 0;
    for (uint64_t spent = 0; kept < expected.size() && spent < kBudget;
         ++kept) {
      const uint64_t n = expected[kept].size();
      spent += n * (n - 1) / 2;
    }
    const std::vector<Block> prefix(expected.begin(),
                                    expected.begin() + kept);

    for (int threads : {1, 3}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const ShardedExecutor executor({.threads = threads, .shards = kShards});
      BlockCollection merged;
      executor.Execute(*technique, dataset.ColdCopy(), merged);
      EXPECT_EQ(merged.blocks(), expected);

      BlockCollection budgeted;
      BudgetedSink capped(budgeted, PairsMeter(kBudget));
      executor.Execute(*technique, dataset.ColdCopy(), capped);
      EXPECT_EQ(budgeted.blocks(), prefix);
    }
  }
}

}  // namespace
}  // namespace sablock::engine
