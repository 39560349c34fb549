// BlockCollection against a from-definition reference. Seeded random
// block streams go into a BlockCollection and into a plain vector of
// owned blocks, and every view the collection offers is compared with
// what the definitions give on the reference: the block sequence, the
// canonical sort, the three counts, the distinct pairs Γ, θB on sampled
// pairs, Drain under backpressure, CSR adoption and moves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "collect_blocks.h"
#include "common/random.h"
#include "core/blocking.h"

namespace sablock::core {
namespace {

/// A stream of blocks as owned ids.
using Stream = std::vector<Ids>;

/// Seeded stream: block sizes 0–40 over a 60-record universe, so ids
/// repeat inside blocks, and about one block in five a copy of an
/// earlier one.
Stream RandomStream(uint64_t seed, size_t num_blocks) {
  Rng rng(seed);
  Stream stream;
  for (size_t i = 0; i < num_blocks; ++i) {
    if (!stream.empty() && rng.UniformReal() < 0.2) {
      stream.push_back(stream[rng.UniformIndex(stream.size())]);
      continue;
    }
    Ids block(rng.UniformIndex(41));
    for (data::RecordId& id : block) {
      id = static_cast<data::RecordId>(rng.UniformIndex(60));
    }
    stream.push_back(std::move(block));
  }
  return stream;
}

std::vector<Stream> Streams() {
  std::vector<Stream> streams = {{}};  // the empty stream
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    streams.push_back(RandomStream(seed, seed * 7));
  }
  return streams;
}

BlockCollection Collect(const Stream& stream) {
  BlockCollection c;
  for (const Ids& block : stream) c.Consume(block);
  return c;
}

/// Γ by definition: every pair of distinct ids sharing a block, (lo, hi).
std::set<std::pair<data::RecordId, data::RecordId>> ReferencePairs(
    const Stream& stream) {
  std::set<std::pair<data::RecordId, data::RecordId>> pairs;
  for (const Ids& b : stream) {
    for (size_t i = 0; i < b.size(); ++i) {
      for (size_t j = i + 1; j < b.size(); ++j) {
        if (b[i] != b[j]) pairs.emplace(std::minmax(b[i], b[j]));
      }
    }
  }
  return pairs;
}

/// A sink that keeps what it receives and turns Done after `limit`.
class DoneAfter : public BlockSink {
 public:
  explicit DoneAfter(size_t limit) : limit_(limit) {}
  void Consume(Block block) override {
    got.emplace_back(block.begin(), block.end());
  }
  bool Done() const override { return got.size() >= limit_; }
  Stream got;

 private:
  size_t limit_;
};

TEST(BlockCollectionOracleTest, ViewsMatchTheDefinitions) {
  for (const Stream& stream : Streams()) {
    SCOPED_TRACE("blocks=" + std::to_string(stream.size()));
    const BlockCollection c = Collect(stream);
    EXPECT_EQ(AsVectors(c), stream);
    EXPECT_EQ(c.NumBlocks(), stream.size());

    uint64_t comparisons = 0;
    uint64_t sizes = 0;
    size_t largest = 0;
    for (const Ids& b : stream) {
      comparisons += b.size() * (b.size() - 1) / 2;
      sizes += b.size();
      largest = std::max(largest, b.size());
    }
    EXPECT_EQ(c.TotalComparisons(), comparisons);
    EXPECT_EQ(c.TotalBlockSizes(), sizes);
    EXPECT_EQ(c.MaxBlockSize(), largest);

    std::set<std::pair<data::RecordId, data::RecordId>> pairs;
    c.DistinctPairs().ForEach([&](uint32_t a, uint32_t b) {
      EXPECT_TRUE(pairs.emplace(a, b).second) << a << "," << b;
    });
    EXPECT_EQ(pairs, ReferencePairs(stream));

    Rng rng(stream.size());
    for (int sample = 0; sample < 200; ++sample) {
      const auto a = static_cast<data::RecordId>(rng.UniformIndex(62));
      const auto b = static_cast<data::RecordId>(rng.UniformIndex(62));
      const bool together =
          std::any_of(stream.begin(), stream.end(), [&](const Ids& block) {
            return std::count(block.begin(), block.end(), a) > 0 &&
                   std::count(block.begin(), block.end(), b) > 0;
          });
      EXPECT_EQ(c.InSameBlock(a, b), together) << a << "," << b;
    }
  }
}

TEST(BlockCollectionOracleTest, SortBlocksIsTheLexicographicSort) {
  for (const Stream& stream : Streams()) {
    SCOPED_TRACE("blocks=" + std::to_string(stream.size()));
    Stream sorted = stream;
    std::sort(sorted.begin(), sorted.end());
    BlockCollection c = Collect(stream);
    c.SortBlocks();
    EXPECT_EQ(AsVectors(c), sorted);
    c.SortBlocks();  // already in order: left as it is
    EXPECT_EQ(AsVectors(c), sorted);
  }
}

TEST(BlockCollectionOracleTest, DrainStopsAtDoneAndEmptiesTheCollection) {
  for (const Stream& stream : Streams()) {
    for (size_t k : {size_t{0}, size_t{1}, stream.size() / 2, stream.size(),
                     stream.size() + 1}) {
      SCOPED_TRACE("blocks=" + std::to_string(stream.size()) +
                   " k=" + std::to_string(k));
      BlockCollection c = Collect(stream);
      DoneAfter sink(k);
      c.Drain(sink);
      const size_t arrived = std::min(k, stream.size());
      EXPECT_EQ(sink.got, Stream(stream.begin(), stream.begin() + arrived));
      EXPECT_EQ(c.NumBlocks(), 0u);
      EXPECT_EQ(c.TotalBlockSizes(), 0u);
    }
  }
}

TEST(BlockCollectionOracleTest, AdoptsCsrArraysAndMoves) {
  for (const Stream& stream : Streams()) {
    SCOPED_TRACE("blocks=" + std::to_string(stream.size()));
    Ids ids;
    std::vector<uint32_t> ends;
    for (const Ids& b : stream) {
      ids.insert(ids.end(), b.begin(), b.end());
      ends.push_back(static_cast<uint32_t>(ids.size()));
    }
    BlockCollection adopted(std::move(ids), std::move(ends));
    EXPECT_TRUE(adopted == Collect(stream));

    BlockCollection moved(std::move(adopted));
    EXPECT_EQ(AsVectors(moved), stream);
    BlockCollection assigned;
    assigned.Add({1, 2, 3});
    assigned = std::move(moved);
    EXPECT_EQ(AsVectors(assigned), stream);
  }
}

}  // namespace
}  // namespace sablock::core
