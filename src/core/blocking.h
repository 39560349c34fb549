#ifndef SABLOCK_CORE_BLOCKING_H_
#define SABLOCK_CORE_BLOCKING_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/pair_set.h"
#include "core/block_sink.h"
#include "data/record.h"

namespace sablock::core {

/// A materialized set of possibly overlapping blocks — the collecting
/// BlockSink. Provides the candidate-pair views needed by the evaluation
/// measures: Γ (distinct pairs), Γm (all pairs, counting redundancy across
/// blocks).
class BlockCollection : public BlockSink {
 public:
  BlockCollection() = default;

  /// Adds a block; blocks with fewer than 2 records produce no comparisons
  /// but are kept for bookkeeping (callers usually skip adding them).
  void Add(Block block) { blocks_.push_back(std::move(block)); }

  /// BlockSink: collecting a block is the same as adding it.
  void Consume(Block block) override { blocks_.push_back(std::move(block)); }

  /// Moves every stored block into `sink` (stopping early if the sink
  /// reports Done) and leaves this collection empty. Lets techniques that
  /// must materialize intermediate results (transitive closure, the
  /// engine's per-shard collections) still emit through the streaming
  /// interface.
  void Drain(BlockSink& sink);

  /// Sorts the blocks into canonical content order (lexicographic by ids).
  void SortBlocks() { std::sort(blocks_.begin(), blocks_.end()); }

  size_t NumBlocks() const { return blocks_.size(); }
  const std::vector<Block>& blocks() const { return blocks_; }

  /// Σ_b |b|(|b|-1)/2 — the redundancy-counting comparison count |Γm|.
  uint64_t TotalComparisons() const;

  /// Σ_b |b| — total block-membership count (used by meta-blocking's CEP
  /// and CNP cardinality budgets).
  uint64_t TotalBlockSizes() const;

  /// Size of the largest block.
  size_t MaxBlockSize() const;

  /// Set of distinct candidate pairs Γ (the blocking function θB of Eq. 2
  /// returns 1 exactly for the pairs in this set).
  PairSet DistinctPairs() const;

  /// True if some block contains both records (θB). Linear scan; intended
  /// for tests and small collections — use DistinctPairs() for bulk work.
  bool InSameBlock(data::RecordId a, data::RecordId b) const;

 private:
  std::vector<Block> blocks_;
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
