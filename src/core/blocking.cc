#include "core/blocking.h"

#include <algorithm>

namespace sablock::core {

void BlockCollection::Drain(BlockSink& sink) {
  for (Block& b : blocks_) {
    if (sink.Done()) break;
    sink.Consume(std::move(b));
  }
  blocks_.clear();
}

uint64_t BlockCollection::TotalComparisons() const {
  uint64_t total = 0;
  for (const Block& b : blocks_) {
    uint64_t n = b.size();
    total += n * (n - 1) / 2;
  }
  return total;
}

uint64_t BlockCollection::TotalBlockSizes() const {
  uint64_t total = 0;
  for (const Block& b : blocks_) total += b.size();
  return total;
}

size_t BlockCollection::MaxBlockSize() const {
  size_t max_size = 0;
  for (const Block& b : blocks_) max_size = std::max(max_size, b.size());
  return max_size;
}

PairSet BlockCollection::DistinctPairs() const {
  // Cap the initial reservation; heavily overlapping collections can report
  // far more comparisons than distinct pairs, and the set grows on demand.
  PairSet pairs(std::min<uint64_t>(TotalComparisons() + 1, 1ULL << 22));
  // Every block's pairs are packed into one running batch of keys, so the
  // batch insert's prefetches reach across the 2-record blocks that make
  // up a pruned collection.
  constexpr size_t kBatch = 512;
  uint64_t batch[kBatch];
  size_t filled = 0;
  for (const Block& b : blocks_) {
    for (size_t i = 0; i < b.size(); ++i) {
      for (size_t j = i + 1; j < b.size(); ++j) {
        if (b[i] == b[j]) continue;
        batch[filled++] = PairSet::Key(b[i], b[j]);
        if (filled == kBatch) {
          pairs.InsertKeys(batch, filled);
          filled = 0;
        }
      }
    }
  }
  pairs.InsertKeys(batch, filled);
  return pairs;
}

bool BlockCollection::InSameBlock(data::RecordId a, data::RecordId b) const {
  for (const Block& block : blocks_) {
    bool has_a = false;
    bool has_b = false;
    for (data::RecordId id : block) {
      has_a |= (id == a);
      has_b |= (id == b);
    }
    if (has_a && has_b) return true;
  }
  return false;
}

}  // namespace sablock::core
