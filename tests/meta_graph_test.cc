// Tests for the blocking-graph layer (pipeline/meta_graph.h): the dense
// node-centric sweep behind WeightPairs against a hash-map accumulation
// oracle (every edge, bit-identical weights, all five weightings), the
// bounded top-K selection against a full sort, CEP's tie-break, and the
// streaming MetaPrune against an edge-list pruning oracle (every
// weighting x pruning, edge-case inputs, sinks that stop early).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "collect_blocks.h"
#include "run_streaming.h"

#include "common/flat_map.h"
#include "common/random.h"
#include "core/blocking.h"
#include "data/cora_generator.h"
#include "pipeline/meta_graph.h"

namespace sablock::pipeline {
namespace {

using core::Block;
using core::BlockCollection;

constexpr MetaWeighting kWeightings[] = {
    MetaWeighting::kArcs, MetaWeighting::kCbs, MetaWeighting::kEcbs,
    MetaWeighting::kJs, MetaWeighting::kEjs};

// The edge accumulation the sweep replaced: one FlatMap probe per
// comparison, then the weighting formulas over the accumulated edges.
// Kept as the reference WeightPairs must reproduce bit for bit.
std::vector<WeightedPair> OracleWeightPairs(size_t num_records,
                                            const BlockCollection& input,
                                            MetaWeighting weighting) {
  struct EdgeAccumulator {
    uint32_t common_blocks = 0;
    double arcs = 0.0;
  };
  std::vector<uint32_t> record_blocks(num_records, 0);
  FlatMap<uint64_t, EdgeAccumulator> edges;
  for (const Block& b : input.blocks()) {
    double comparisons = static_cast<double>(b.size()) *
                         (static_cast<double>(b.size()) - 1) / 2.0;
    for (data::RecordId id : b) ++record_blocks[id];
    for (size_t i = 0; i < b.size(); ++i) {
      for (size_t j = i + 1; j < b.size(); ++j) {
        if (b[i] == b[j]) continue;
        uint32_t lo = std::min(b[i], b[j]);
        uint32_t hi = std::max(b[i], b[j]);
        EdgeAccumulator& acc =
            edges[(static_cast<uint64_t>(lo) << 32) | hi];
        ++acc.common_blocks;
        acc.arcs += 1.0 / comparisons;
      }
    }
  }
  const double num_blocks =
      std::max<double>(static_cast<double>(input.NumBlocks()), 1.0);
  const double num_edges =
      std::max<double>(static_cast<double>(edges.size()), 1.0);
  std::vector<uint32_t> degree(num_records, 0);
  for (const auto& [key, acc] : edges) {
    ++degree[static_cast<uint32_t>(key >> 32)];
    ++degree[static_cast<uint32_t>(key & 0xffffffffULL)];
  }
  std::vector<WeightedPair> weighted;
  for (const auto& [key, acc] : edges) {
    uint32_t a = static_cast<uint32_t>(key >> 32);
    uint32_t b = static_cast<uint32_t>(key & 0xffffffffULL);
    double cbs = acc.common_blocks;
    double weight = 0.0;
    switch (weighting) {
      case MetaWeighting::kArcs:
        weight = acc.arcs;
        break;
      case MetaWeighting::kCbs:
        weight = cbs;
        break;
      case MetaWeighting::kEcbs:
        weight = cbs * std::log(num_blocks / record_blocks[a]) *
                 std::log(num_blocks / record_blocks[b]);
        break;
      case MetaWeighting::kJs:
        weight = cbs / (record_blocks[a] + record_blocks[b] - cbs);
        break;
      case MetaWeighting::kEjs: {
        double js = cbs / (record_blocks[a] + record_blocks[b] - cbs);
        double da = std::max<double>(degree[a], 1.0);
        double db = std::max<double>(degree[b], 1.0);
        weight = js * std::log(num_edges / da) * std::log(num_edges / db);
        break;
      }
    }
    weighted.push_back({key, weight});
  }
  return weighted;
}

// The pruning MetaPrune's sweeps replaced: materialize every weighted
// edge with WeightPairs, then filter the list — one fold for WEP's mean,
// per-node sums and degrees for WNP, per-node incident lists partially
// sorted for CNP. CEP is TopWeightedPairs in rank order. Kept as the
// reference the streaming MetaPrune must reproduce block for block.
BlockCollection OracleMetaPrune(size_t num_records,
                                const BlockCollection& input,
                                MetaWeighting weighting,
                                MetaPruning pruning) {
  BlockCollection out;
  if (pruning == MetaPruning::kCep) {
    for (const WeightedPair& e :
         TopWeightedPairs(num_records, input, weighting,
                          input.TotalBlockSizes() / 2)) {
      out.Add({e.a(), e.b()});
    }
    return out;
  }

  std::vector<WeightedPair> weighted =
      WeightPairs(num_records, input, weighting);
  const double num_edges =
      std::max<double>(static_cast<double>(weighted.size()), 1.0);
  double total_weight = 0.0;
  for (const WeightedPair& e : weighted) total_weight += e.weight;

  std::vector<uint32_t> degree(num_records, 0);
  for (const WeightedPair& e : weighted) {
    ++degree[e.a()];
    ++degree[e.b()];
  }

  std::vector<uint64_t> kept;
  switch (pruning) {
    case MetaPruning::kWep: {
      double mean = weighted.empty() ? 0.0 : total_weight / num_edges;
      for (const WeightedPair& e : weighted) {
        if (e.weight >= mean) kept.push_back(e.key);
      }
      break;
    }
    case MetaPruning::kCep:
      break;  // handled above
    case MetaPruning::kWnp: {
      std::vector<double> sum(num_records, 0.0);
      for (const WeightedPair& e : weighted) {
        sum[e.a()] += e.weight;
        sum[e.b()] += e.weight;
      }
      for (const WeightedPair& e : weighted) {
        double thr_a = degree[e.a()] > 0 ? sum[e.a()] / degree[e.a()] : 0.0;
        double thr_b = degree[e.b()] > 0 ? sum[e.b()] / degree[e.b()] : 0.0;
        if (e.weight >= thr_a || e.weight >= thr_b) kept.push_back(e.key);
      }
      break;
    }
    case MetaPruning::kCnp: {
      size_t k = static_cast<size_t>(
          std::max<uint64_t>(1, input.TotalBlockSizes() /
                                    std::max<size_t>(num_records, 1)));
      std::vector<std::vector<std::pair<double, uint64_t>>> incident(
          num_records);
      for (const WeightedPair& e : weighted) {
        incident[e.a()].emplace_back(e.weight, e.key);
        incident[e.b()].emplace_back(e.weight, e.key);
      }
      for (auto& inc : incident) {
        size_t keep = std::min(k, inc.size());
        if (keep == 0) continue;
        std::partial_sort(inc.begin(),
                          inc.begin() + static_cast<ptrdiff_t>(keep),
                          inc.end(), std::greater<>());
        for (size_t i = 0; i < keep; ++i) kept.push_back(inc[i].second);
      }
      std::sort(kept.begin(), kept.end());
      kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
      break;
    }
  }

  for (uint64_t key : kept) {
    out.Add({static_cast<uint32_t>(key >> 32),
             static_cast<uint32_t>(key & 0xffffffffULL)});
  }
  return out;
}

std::vector<WeightedPair> SortedByKey(std::vector<WeightedPair> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const WeightedPair& x, const WeightedPair& y) {
              return x.key < y.key;
            });
  return edges;
}

std::vector<WeightedPair> Ranked(std::vector<WeightedPair> edges) {
  std::sort(edges.begin(), edges.end(), RanksBefore);
  return edges;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameEdges(const std::vector<WeightedPair>& actual,
                     const std::vector<WeightedPair>& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].key, expected[i].key) << label << " edge " << i;
    ASSERT_EQ(Bits(actual[i].weight), Bits(expected[i].weight))
        << label << " edge " << i << ": " << actual[i].weight << " vs "
        << expected[i].weight;
  }
}

// Seeded random blocks covering every membership shape the sweep must
// handle: duplicate ids inside a block, singleton and empty blocks, a
// block of one repeated id, and records (the top five ids) in no block.
BlockCollection RandomBlocks(uint64_t seed, size_t num_records,
                             size_t num_blocks) {
  Rng rng(seed);
  const size_t used = num_records - 5;
  BlockCollection blocks;
  for (size_t i = 0; i < num_blocks; ++i) {
    Ids b;
    const size_t size = rng.UniformIndex(9);  // 0..8 members
    for (size_t j = 0; j < size; ++j) {
      b.push_back(static_cast<data::RecordId>(rng.UniformIndex(used)));
    }
    if (size >= 2 && rng.UniformReal() < 0.3) b.push_back(b[1]);
    blocks.Add(b);
  }
  blocks.Add({});
  blocks.Add({3});
  blocks.Add({4, 4});
  return blocks;
}

// Token blocking over the 400-record golden Cora corpus: real skew and
// plenty of equal CBS weights.
struct CoraInput {
  data::Dataset dataset;
  BlockCollection blocks;
};

CoraInput GoldenCoraBlocks() {
  data::CoraGeneratorConfig config;
  config.num_entities = 40;
  config.num_records = 400;
  config.seed = 42;
  CoraInput in{data::GenerateCoraLike(config), {}};
  in.blocks = RunSpec(
      "token-blocking:attrs=authors+title | purge:max_size=500", in.dataset);
  return in;
}

TEST(WeightPairsTest, SweepMatchesHashMapOracleBitForBit) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const size_t records = 60 + 20 * seed;
    BlockCollection blocks = RandomBlocks(seed, records, 40 * seed);
    for (MetaWeighting w : kWeightings) {
      ExpectSameEdges(SortedByKey(WeightPairs(records, blocks, w)),
                      SortedByKey(OracleWeightPairs(records, blocks, w)),
                      std::string(MetaWeightingName(w)) + " seed " +
                          std::to_string(seed));
    }
  }
  CoraInput cora = GoldenCoraBlocks();
  for (MetaWeighting w : kWeightings) {
    ExpectSameEdges(
        SortedByKey(WeightPairs(cora.dataset.size(), cora.blocks, w)),
        SortedByKey(OracleWeightPairs(cora.dataset.size(), cora.blocks, w)),
        std::string(MetaWeightingName(w)) + " cora");
  }
}

TEST(WeightPairsTest, EmitsEachEdgeOnceGroupedBySmallerEndpoint) {
  BlockCollection blocks = RandomBlocks(7, 100, 200);
  std::vector<WeightedPair> edges =
      WeightPairs(100, blocks, MetaWeighting::kCbs);
  ASSERT_FALSE(edges.empty());
  for (size_t i = 0; i < edges.size(); ++i) {
    EXPECT_LT(edges[i].a(), edges[i].b());
    if (i > 0) {
      EXPECT_LE(edges[i - 1].a(), edges[i].a());
    }
  }
  std::vector<WeightedPair> sorted = SortedByKey(edges);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LT(sorted[i - 1].key, sorted[i].key);
  }
}

TEST(WeightPairsTest, EmptyAndPairlessInputsHaveNoEdges) {
  BlockCollection none;
  EXPECT_TRUE(WeightPairs(10, none, MetaWeighting::kEjs).empty());
  BlockCollection pairless;
  pairless.Add({});
  pairless.Add({2});
  pairless.Add({5, 5});
  for (MetaWeighting w : kWeightings) {
    EXPECT_TRUE(WeightPairs(10, pairless, w).empty());
    EXPECT_TRUE(TopWeightedPairs(10, pairless, w, 3).empty());
  }
}

TEST(TopWeightedPairsTest, EqualsThePrefixOfTheFullRanking) {
  const size_t records = 120;
  BlockCollection blocks = RandomBlocks(11, records, 300);
  for (MetaWeighting w : kWeightings) {
    const std::vector<WeightedPair> full =
        Ranked(WeightPairs(records, blocks, w));
    const uint64_t e = full.size();
    ASSERT_GT(e, 200u);
    for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{7}, e / 100, e / 2,
                       e - 1, e, e + 5, blocks.TotalComparisons(),
                       UINT64_MAX}) {
      std::vector<WeightedPair> expected(
          full.begin(), full.begin() + static_cast<ptrdiff_t>(std::min(k, e)));
      ExpectSameEdges(TopWeightedPairs(records, blocks, w, k), expected,
                      std::string(MetaWeightingName(w)) + " k=" +
                          std::to_string(k));
    }
  }
}

// CEP keeps K = ⌊Σ|b|/2⌋ edges. Under CBS most weights tie, so the kept
// set used to depend on hash-slot order; it is now the unique top-K under
// (weight desc, key asc).
TEST(MetaPruneTest, CepBreaksWeightTiesByPairKey) {
  CoraInput cora = GoldenCoraBlocks();
  const size_t records = cora.dataset.size();
  const size_t k = cora.blocks.TotalBlockSizes() / 2;
  std::vector<WeightedPair> brute = Ranked(
      OracleWeightPairs(records, cora.blocks, MetaWeighting::kCbs));
  ASSERT_LT(k, brute.size());
  // The cut falls inside a run of equal weights: the tie-break decides.
  ASSERT_EQ(brute[k - 1].weight, brute[k].weight);

  BlockCollection kept;
  MetaPrune(records, cora.blocks, MetaWeighting::kCbs, MetaPruning::kCep,
            kept);
  ASSERT_EQ(kept.NumBlocks(), k);
  const std::vector<Ids> got = AsVectors(kept);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(got[i], (Ids{brute[i].a(), brute[i].b()})) << i;
  }
}

constexpr MetaPruning kPrunings[] = {MetaPruning::kWep, MetaPruning::kCep,
                                     MetaPruning::kWnp, MetaPruning::kCnp};

BlockCollection StreamedPrune(size_t num_records, const BlockCollection& input,
                              MetaWeighting weighting, MetaPruning pruning) {
  BlockCollection out;
  MetaPrune(num_records, input, weighting, pruning, out);
  return out;
}

// Every weighting x pruning emits exactly the oracle's block sequence.
void ExpectOracleSequence(size_t num_records, const BlockCollection& input,
                          const std::string& label) {
  for (MetaWeighting w : kWeightings) {
    for (MetaPruning p : kPrunings) {
      EXPECT_EQ(AsVectors(StreamedPrune(num_records, input, w, p)),
                AsVectors(OracleMetaPrune(num_records, input, w, p)))
          << label << " " << MetaPruningName(p) << "+"
          << MetaWeightingName(w);
    }
  }
}

TEST(MetaPruneTest, StreamsTheEdgeListOraclesBlocks) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const size_t records = 60 + 20 * seed;
    ExpectOracleSequence(records, RandomBlocks(seed, records, 40 * seed),
                         "seed " + std::to_string(seed));
  }
  CoraInput cora = GoldenCoraBlocks();
  const BlockCollection kept =
      StreamedPrune(cora.dataset.size(), cora.blocks, MetaWeighting::kCbs,
                    MetaPruning::kWnp);
  ASSERT_GT(kept.NumBlocks(), 100u);  // a real pruning, not a corner case
  ExpectOracleSequence(cora.dataset.size(), cora.blocks, "cora");
}

TEST(MetaPruneTest, EdgeCaseInputsMatchTheOracle) {
  // Repeated ids inside blocks, a 0-record and a 1-record block, records
  // 3, 5 and 7..11 in no block, and num_records above the largest id.
  BlockCollection shapes;
  shapes.Add({0, 1, 2});
  shapes.Add({1, 2, 2, 4});
  shapes.Add({});
  shapes.Add({6});
  shapes.Add({2, 4, 6});
  shapes.Add({0, 0});
  shapes.Add({1, 4});
  ExpectOracleSequence(12, shapes, "shapes");
  EXPECT_GT(StreamedPrune(12, shapes, MetaWeighting::kJs, MetaPruning::kWnp)
                .NumBlocks(),
            0u);

  // Only pair blocks: K = Σ|b|/2 reaches the comparison count, which is
  // TopWeightedPairs' all-edges case.
  BlockCollection pairs;
  pairs.Add({0, 3});
  pairs.Add({3, 0});
  pairs.Add({2, 5});
  pairs.Add({5, 9});
  ExpectOracleSequence(20, pairs, "pairs");

  BlockCollection pairless;
  pairless.Add({});
  pairless.Add({2});
  pairless.Add({5, 5});
  ExpectOracleSequence(10, pairless, "pairless");
  ExpectOracleSequence(10, BlockCollection(), "no blocks");
  ExpectOracleSequence(0, BlockCollection(), "no records");
}

// A collecting sink that reports Done once it holds `limit` blocks.
class StopAfter : public core::BlockSink {
 public:
  explicit StopAfter(size_t limit) : limit_(limit) {}
  void Consume(Block block) override { got_.Add(block); }
  bool Done() const override { return got_.NumBlocks() >= limit_; }
  const BlockCollection& got() const { return got_; }

 private:
  size_t limit_;
  BlockCollection got_;
};

TEST(MetaPruneTest, StopsWhenTheSinkIsDone) {
  CoraInput cora = GoldenCoraBlocks();
  const size_t records = cora.dataset.size();
  for (MetaWeighting w : kWeightings) {
    for (MetaPruning p : kPrunings) {
      const std::vector<Ids> expected =
          AsVectors(OracleMetaPrune(records, cora.blocks, w, p));
      const size_t total = expected.size();
      ASSERT_GT(total, 10u);
      for (size_t n : {size_t{0}, size_t{1}, size_t{7}, total / 2, total - 1,
                       total, total + 3}) {
        StopAfter sink(n);
        MetaPrune(records, cora.blocks, w, p, sink);
        const std::vector<Ids> prefix(
            expected.begin(),
            expected.begin() + static_cast<ptrdiff_t>(std::min(n, total)));
        EXPECT_EQ(AsVectors(sink.got()), prefix)
            << MetaPruningName(p) << "+" << MetaWeightingName(w) << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace sablock::pipeline
