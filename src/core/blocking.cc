#include "core/blocking.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace sablock::core {

BlockCollection::BlockCollection(std::vector<data::RecordId> ids,
                                 std::vector<uint32_t> ends)
    : ids_(std::move(ids)), ends_(std::move(ends)) {
  SABLOCK_CHECK((ends_.empty() ? 0 : ends_.back()) == ids_.size());
  SABLOCK_DCHECK(std::ranges::is_sorted(ends_));
}

void BlockCollection::Drain(BlockSink& sink) {
  for (Block b : blocks()) {
    if (sink.Done()) break;
    sink.Consume(b);
  }
  *this = BlockCollection();
}

void BlockCollection::SortBlocks() {
  const auto lex_less = [](Block x, Block y) {
    return std::ranges::lexicographical_compare(x, y);
  };
  if (std::ranges::is_sorted(blocks(), lex_less)) return;
  // Sort a permutation, then gather once. Equal blocks are identical, so
  // the order is the one any sort of the blocks themselves gives.
  std::vector<size_t> order(NumBlocks());
  std::iota(order.begin(), order.end(), size_t{0});
  std::ranges::sort(order, lex_less, [this](size_t i) { return At(i); });
  std::vector<data::RecordId> ids;
  std::vector<uint32_t> ends;
  ids.reserve(ids_.size());
  ends.reserve(ends_.size());
  for (size_t i : order) {
    const Block b = At(i);
    ids.insert(ids.end(), b.begin(), b.end());
    ends.push_back(static_cast<uint32_t>(ids.size()));
  }
  ids_ = std::move(ids);
  ends_ = std::move(ends);
}

uint64_t BlockCollection::TotalComparisons() const {
  uint64_t total = 0;
  for (Block b : blocks()) {
    uint64_t n = b.size();
    total += n * (n - 1) / 2;
  }
  return total;
}

size_t BlockCollection::MaxBlockSize() const {
  size_t max_size = 0;
  for (Block b : blocks()) max_size = std::max(max_size, b.size());
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
  for (Block b : blocks()) {
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
  for (Block block : blocks()) {
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
