// Golden pins for meta-blocking: the pipeline `token-blocking | purge |
// meta` must keep producing exactly the block sequence — same blocks,
// same order — that the original monolithic meta-blocking technique
// produced, for every weighting × pruning combination, both
// single-threaded and through the sharded engine (merge=collect, where
// the pipeline runs whole per record shard). The digests below were
// captured from that technique; the registered `meta` technique must
// equal the spec pipeline across the same grid.
//
// (feature_golden_test additionally pins the registered technique's
// canonical block set.)

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "api/registry.h"
#include "collect_blocks.h"
#include "common/string_util.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "engine/sharded_executor.h"
#include "pipeline/meta_graph.h"
#include "pipeline/pipeline.h"

namespace sablock {
namespace {

using core::BlockCollection;
using pipeline::MetaPruning;
using pipeline::MetaPruningName;
using pipeline::MetaWeighting;
using pipeline::MetaWeightingName;

constexpr size_t kPurgeSize = 300;

data::Dataset GoldenDataset() {
  data::CoraGeneratorConfig config;
  config.num_entities = 40;
  config.num_records = 400;
  config.seed = 42;
  return data::GenerateCoraLike(config);
}

/// Order-sensitive fingerprint of a block sequence: FNV-1a over the block
/// count, then every block's size and ids in emission order.
uint64_t SequenceDigest(const BlockCollection& blocks) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  mix(blocks.NumBlocks());
  for (const core::Block& b : blocks.blocks()) {
    mix(b.size());
    for (data::RecordId id : b) mix(id);
  }
  return h;
}

struct Golden {
  MetaWeighting weighting;
  MetaPruning pruning;
  uint64_t single;           // SequenceDigest, one thread
  size_t single_blocks;
  uint64_t sharded;          // SequenceDigest, threads=2,shards=3,collect
  size_t sharded_blocks;
};

constexpr Golden kGoldens[] = {
    {MetaWeighting::kArcs, MetaPruning::kWep, 0x045341b901faf1acULL, 4125,
     0x45967543c7eb1605ULL, 1840},
    {MetaWeighting::kArcs, MetaPruning::kCep, 0x54521eb5fc227228ULL, 1578,
     0x6efd1b17f4837b68ULL, 1502},
    {MetaWeighting::kArcs, MetaPruning::kWnp, 0x4c63b5f62ab37906ULL, 10474,
     0xd970fb41dd883cb3ULL, 3704},
    {MetaWeighting::kArcs, MetaPruning::kCnp, 0xa3f6212385695af8ULL, 1990,
     0xc9fa99421e64e3bfULL, 1902},
    {MetaWeighting::kCbs, MetaPruning::kWep, 0x2c765ca53bbb20faULL, 11497,
     0x69442e9fac04e79fULL, 5956},
    {MetaWeighting::kCbs, MetaPruning::kCep, 0x07459724d392a8aeULL, 1578,
     0x2151f1cf5cd44b60ULL, 1502},
    {MetaWeighting::kCbs, MetaPruning::kWnp, 0xc32879b0db7344acULL, 24675,
     0x35e2f173e53341a9ULL, 8308},
    {MetaWeighting::kCbs, MetaPruning::kCnp, 0xae24023d28c37803ULL, 2169,
     0xe1c4300bd3364f73ULL, 2062},
    {MetaWeighting::kEcbs, MetaPruning::kWep, 0x369edcdbef95a75dULL, 18826,
     0x7ee8321ffd07c494ULL, 6261},
    {MetaWeighting::kEcbs, MetaPruning::kCep, 0xb5261aa2e93b84bcULL, 1578,
     0x7b6393599744ff86ULL, 1502},
    {MetaWeighting::kEcbs, MetaPruning::kWnp, 0xe860d90f62b52902ULL, 24521,
     0x6f9b2024a3830dc8ULL, 8117},
    {MetaWeighting::kEcbs, MetaPruning::kCnp, 0x5ce1f779e7a1cd67ULL, 2060,
     0x7a62513568f6e615ULL, 1952},
    {MetaWeighting::kJs, MetaPruning::kWep, 0x5854a807ce6e1682ULL, 13624,
     0x4e8e91522f583c66ULL, 4729},
    {MetaWeighting::kJs, MetaPruning::kCep, 0x70cf84d6f8410962ULL, 1578,
     0xd89fdbac71ba7d43ULL, 1502},
    {MetaWeighting::kJs, MetaPruning::kWnp, 0x3bc5bc216069fd14ULL, 22077,
     0x52d5402a59170743ULL, 7370},
    {MetaWeighting::kJs, MetaPruning::kCnp, 0x8a434cbaae32bd74ULL, 2042,
     0xe7611c1d673d5b0aULL, 1943},
    {MetaWeighting::kEjs, MetaPruning::kWep, 0x0ba3956aacc340d8ULL, 14197,
     0x77911708a2d88eceULL, 4797},
    {MetaWeighting::kEjs, MetaPruning::kCep, 0xad62c4405facb299ULL, 1578,
     0x2711f98f9f336aaeULL, 1502},
    {MetaWeighting::kEjs, MetaPruning::kWnp, 0x56859f0a9855f736ULL, 22141,
     0x22aecb84737c6d6bULL, 7320},
    {MetaWeighting::kEjs, MetaPruning::kCnp, 0x05145088e95d6327ULL, 1989,
     0xf14854ffd8d48f4fULL, 1938},
};

std::string ComboName(const Golden& g) {
  return std::string(MetaPruningName(g.pruning)) + "+" +
         MetaWeightingName(g.weighting);
}

std::unique_ptr<pipeline::PipelinedBlocker> BuildPipeline(const Golden& g) {
  const std::string spec =
      "token-blocking:attrs=authors+title | purge:max_size=" +
      std::to_string(kPurgeSize) +
      " | meta:weight=" + ToLower(MetaWeightingName(g.weighting)) +
      ",prune=" + ToLower(MetaPruningName(g.pruning));
  std::unique_ptr<pipeline::PipelinedBlocker> pipelined;
  Status status = pipeline::Build(spec, &pipelined);
  EXPECT_TRUE(status.ok()) << spec << ": " << status.message();
  return pipelined;
}

void ExpectGolden(const BlockCollection& blocks, uint64_t digest,
                  size_t num_blocks, const std::string& label) {
  EXPECT_EQ(blocks.NumBlocks(), num_blocks) << label;
  const uint64_t actual = SequenceDigest(blocks);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, actual);
  EXPECT_EQ(actual, digest) << label << " digest " << hex;
}

TEST(PipelineGoldenTest, AllCombosMatchPinnedDigestsSingleThreaded) {
  data::Dataset d = GoldenDataset();
  for (const Golden& g : kGoldens) {
    std::unique_ptr<pipeline::PipelinedBlocker> pipelined = BuildPipeline(g);
    ASSERT_NE(pipelined, nullptr);
    BlockCollection actual;
    pipelined->Run(d, actual);
    ExpectGolden(actual, g.single, g.single_blocks, ComboName(g));
  }
}

TEST(PipelineGoldenTest, AllCombosMatchPinnedDigestsThroughShardedCollect) {
  data::Dataset d = GoldenDataset();
  engine::ExecutionSpec spec;
  ASSERT_TRUE(engine::ExecutionSpec::Parse("threads=2,shards=3,merge=collect",
                                           &spec)
                  .ok());
  engine::ShardedExecutor executor(spec);
  for (const Golden& g : kGoldens) {
    std::unique_ptr<pipeline::PipelinedBlocker> pipelined = BuildPipeline(g);
    ASSERT_NE(pipelined, nullptr);
    BlockCollection sharded;
    executor.Execute(*pipelined, d, sharded);
    ExpectGolden(sharded, g.sharded, g.sharded_blocks, ComboName(g));
  }
}

TEST(PipelineGoldenTest, RegisteredMetaTechniqueEqualsSpecPipeline) {
  // The `meta` registry entry is the spec pipeline under one name: the
  // same blocks in the same order for every combination.
  data::Dataset d = GoldenDataset();
  for (const Golden& g : kGoldens) {
    std::unique_ptr<core::BlockingTechnique> registered;
    ASSERT_TRUE(api::BlockerRegistry::Global()
                    .Create("meta:weighting=" +
                                ToLower(MetaWeightingName(g.weighting)) +
                                ",pruning=" +
                                ToLower(MetaPruningName(g.pruning)) +
                                ",max-block=" + std::to_string(kPurgeSize) +
                                ",attrs=authors+title",
                            &registered)
                    .ok());
    BlockCollection from_registry;
    registered->Run(d, from_registry);

    BlockCollection from_pipeline;
    BuildPipeline(g)->Run(d, from_pipeline);
    ASSERT_GT(from_pipeline.NumBlocks(), 0u) << ComboName(g);
    EXPECT_EQ(AsVectors(from_registry), AsVectors(from_pipeline))
        << ComboName(g);
  }
}

}  // namespace
}  // namespace sablock
