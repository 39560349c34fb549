#ifndef SABLOCK_CORE_BLOCKING_H_
#define SABLOCK_CORE_BLOCKING_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ranges>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/pair_set.h"
#include "core/block_sink.h"
#include "data/record.h"

namespace sablock::core {

/// A materialized set of possibly overlapping blocks — the collecting
/// BlockSink. Stored flat (CSR): every block's ids back to back in one
/// array, and one 32-bit offset per block marking where it ends, so a
/// stored block costs its ids plus 4 bytes and collecting one allocates
/// nothing past the two arrays' growth. A collection holds fewer than
/// 2^32 ids in all. Provides the candidate-pair views needed by the
/// evaluation measures: Γ (distinct pairs), Γm (all pairs, counting
/// redundancy across blocks).
class BlockCollection : public BlockSink {
 public:
  BlockCollection() = default;

  /// Adopts CSR arrays: block i holds ids[ends[i-1], ends[i]), the first
  /// from 0. `ends` is non-decreasing and its last entry is ids.size().
  BlockCollection(std::vector<data::RecordId> ids, std::vector<uint32_t> ends);

  /// Appends a copy of `block`, which must not point into this
  /// collection. Blocks with fewer than 2 records produce no comparisons
  /// but are kept for bookkeeping (callers usually skip adding them).
  void Add(Block block) {
    ids_.insert(ids_.end(), block.begin(), block.end());
    SABLOCK_CHECK(ids_.size() < UINT32_MAX);
    ends_.push_back(static_cast<uint32_t>(ids_.size()));
  }
  /// Appends a block spelled out in place, e.g. Add({a, b}).
  void Add(std::initializer_list<data::RecordId> ids) {
    Add(Block(ids.begin(), ids.size()));
  }

  /// BlockSink: collecting a block is the same as adding it.
  void Consume(Block block) override { Add(block); }

  /// Emits every stored block into `sink` in order (stopping early if the
  /// sink reports Done), then releases both arrays, leaving this
  /// collection empty. Lets techniques that must materialize intermediate
  /// results (transitive closure, the engine's per-shard collections)
  /// still emit through the streaming interface.
  void Drain(BlockSink& sink);

  /// Sorts the blocks into canonical content order (lexicographic by
  /// ids). A collection already in that order is left as it is.
  void SortBlocks();

  size_t NumBlocks() const { return ends_.size(); }

  /// The stored blocks as a random-access view — size(), operator[] and
  /// range-for — each element a Block over this collection's ids, valid
  /// until the collection next changes.
  auto blocks() const {
    return std::views::iota(size_t{0}, NumBlocks()) |
           std::views::transform([this](size_t i) { return At(i); });
  }

  /// Σ_b |b|(|b|-1)/2 — the redundancy-counting comparison count |Γm|.
  uint64_t TotalComparisons() const;

  /// Σ_b |b| — total block-membership count (used by meta-blocking's CEP
  /// and CNP cardinality budgets).
  uint64_t TotalBlockSizes() const { return ids_.size(); }

  /// Size of the largest block.
  size_t MaxBlockSize() const;

  /// Set of distinct candidate pairs Γ (the blocking function θB of Eq. 2
  /// returns 1 exactly for the pairs in this set).
  PairSet DistinctPairs() const;

  /// True if some block contains both records (θB). Linear scan; intended
  /// for tests and small collections — use DistinctPairs() for bulk work.
  bool InSameBlock(data::RecordId a, data::RecordId b) const;

  /// The same blocks in the same order.
  friend bool operator==(const BlockCollection& x, const BlockCollection& y) {
    return x.ids_ == y.ids_ && x.ends_ == y.ends_;
  }

 private:
  size_t Begin(size_t i) const { return i == 0 ? 0 : ends_[i - 1]; }
  Block At(size_t i) const {
    return Block(ids_).subspan(Begin(i), ends_[i] - Begin(i));
  }

  std::vector<data::RecordId> ids_;
  std::vector<uint32_t> ends_;  // ends_[i]: one past block i's last id
};

/// Interface implemented by every blocking technique in the library (the
/// paper's SA-LSH and all baselines), so the evaluation harness can sweep
/// them uniformly.
///
/// Run streams: techniques emit each block as it is built and poll
/// sink.Done() to stop early. Callers that need the whole output collect
/// through a BlockCollection sink, so the call site states where
/// materialization happens.
class BlockingTechnique {
 public:
  virtual ~BlockingTechnique() = default;

  /// Short identifier, e.g. "SA-LSH" or "SorA(w=3)".
  virtual std::string name() const = 0;

  /// Builds the blocks for a dataset, emitting each through `sink`.
  virtual void Run(const data::Dataset& dataset, BlockSink& sink) const = 0;
};

}  // namespace sablock::core

#endif  // SABLOCK_CORE_BLOCKING_H_
