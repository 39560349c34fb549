// Golden equivalence for progressive blocking: with an unlimited budget,
// appending `| progressive:sched=ew-cbs` to any registered technique must
// re-emit exactly the batch run's distinct candidate pairs — progressive
// blocking reorders comparisons, it never invents or loses any. The spec
// grid below is the same 19-technique registry sweep the snapshot-io
// bench pins, so every blocker family (sorted-neighbourhood, suffix,
// string-map, canopy, meta, LSH variants) is covered.
//
// A second test pins thread-count determinism: at a fixed shard count the
// sharded engine's global stage chain (merge=collect) must produce a
// byte-identical progressive stream regardless of how many threads run
// the shards.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "collect_blocks.h"
#include "common/pair_set.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "data/record.h"
#include "engine/sharded_executor.h"
#include "pipeline/pipeline.h"

namespace sablock {
namespace {

using core::Block;
using core::BlockCollection;

// Mirrors bench/bench_snapshot_io.cc's registry sweep: one spec per
// registered technique, smallish parameters so the grid stays fast.
const char* const kRegistrySpecs[] = {
    "tblo:attrs=authors+title",
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
    "sa-lsh:k=2,l=8,q=3,seed=7,w=5,mode=or,domain=bib,sem-seed=11,"
    "attrs=authors+title",
    "mp-lsh:k=2,l=8,q=3,seed=7,probes=2,attrs=authors+title",
    "forest:k=2,l=8,q=3,seed=7,depth=10,max-block=25,attrs=authors+title",
    "harra:k=2,l=8,q=3,seed=7,merge-threshold=0.5,iterations=2,"
    "attrs=authors+title",
};

data::Dataset GoldenDataset() {
  data::CoraGeneratorConfig config;
  config.num_entities = 40;
  config.num_records = 400;
  config.seed = 42;
  return data::GenerateCoraLike(config);
}

std::unique_ptr<pipeline::PipelinedBlocker> BuildOrDie(
    const std::string& spec) {
  std::unique_ptr<pipeline::PipelinedBlocker> pipelined;
  Status status = pipeline::Build(spec, &pipelined);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  return pipelined;
}

PairSet PairsOfProgressiveOutput(const BlockCollection& out) {
  PairSet pairs;
  for (const Block& b : out.blocks()) {
    EXPECT_EQ(b.size(), 2u);
    pairs.Insert(b[0], b[1]);
  }
  return pairs;
}

TEST(ProgressiveGoldenTest, UnlimitedBudgetMatchesBatchForEveryTechnique) {
  data::Dataset d = GoldenDataset();
  for (const char* spec : kRegistrySpecs) {
    std::unique_ptr<pipeline::PipelinedBlocker> batch = BuildOrDie(spec);
    ASSERT_NE(batch, nullptr) << spec;
    BlockCollection batch_out;
    batch->Run(d, batch_out);
    PairSet expected = batch_out.DistinctPairs();
    ASSERT_GT(expected.size(), 0u) << spec;

    std::unique_ptr<pipeline::PipelinedBlocker> progressive =
        BuildOrDie(std::string(spec) + " | progressive:sched=ew-cbs");
    ASSERT_NE(progressive, nullptr) << spec;
    BlockCollection progressive_out;
    progressive->Run(d, progressive_out);

    // One two-record block per distinct pair, each pair exactly once.
    EXPECT_EQ(progressive_out.NumBlocks(), expected.size()) << spec;
    PairSet emitted = PairsOfProgressiveOutput(progressive_out);
    EXPECT_EQ(emitted.size(), expected.size()) << spec;
    bool all_expected = true;
    emitted.ForEach([&](uint32_t a, uint32_t b) {
      if (!expected.Contains(a, b)) all_expected = false;
    });
    EXPECT_TRUE(all_expected) << spec << ": emitted a pair batch never saw";
  }
}

TEST(ProgressiveGoldenTest, ShardedOutputIsThreadCountInvariant) {
  data::Dataset d = GoldenDataset();
  std::unique_ptr<pipeline::PipelinedBlocker> pipelined = BuildOrDie(
      "tblo:attrs=authors+title | purge:max_size=200 | "
      "progressive:sched=ew-cbs");
  ASSERT_NE(pipelined, nullptr);

  // Same shard count (part of the computation's definition), different
  // thread counts (which must not be): the global stage chain under
  // merge=collect has to emit the identical best-first stream.
  BlockCollection reference;
  for (int threads : {1, 2, 4}) {
    engine::ExecutionSpec spec;
    ASSERT_TRUE(engine::ExecutionSpec::Parse(
                    "threads=" + std::to_string(threads) +
                        ",shards=3,merge=collect",
                    &spec)
                    .ok());
    engine::ShardedExecutor executor(spec);
    BlockCollection out;
    executor.ExecutePipeline(pipelined->blocker(), pipelined->stages(), d,
                             out);
    ASSERT_GT(out.NumBlocks(), 0u);
    if (threads == 1) {
      reference = std::move(out);
    } else {
      EXPECT_EQ(AsVectors(out), AsVectors(reference)) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace sablock
