#ifndef SABLOCK_CORE_BLOCK_SINK_H_
#define SABLOCK_CORE_BLOCK_SINK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "core/budget.h"
#include "data/record.h"

namespace sablock::core {

/// A block: the ids of the records placed together by a blocking
/// technique, borrowed from storage its producer holds. Code that owns
/// ids spells std::vector<data::RecordId>.
using Block = std::span<const data::RecordId>;

/// One scored candidate comparison: a record pair and the scheduler's
/// priority for it (higher = compare sooner). Pairs are normalized a < b.
/// Progressive producers rank these and emit each as a 2-record block.
struct CandidatePair {
  data::RecordId a = 0;
  data::RecordId b = 0;
  double score = 0.0;

  friend bool operator==(const CandidatePair& x, const CandidatePair& y) {
    return x.a == y.a && x.b == y.b;
  }
};

/// Streaming consumer of blocks. Techniques emit every block through a sink
/// instead of materializing a full collection, so downstream stages
/// (counting, capping, sharded fan-out, meta-blocking) can process blocks
/// as they are produced.
///
/// Thread-safety contract: sinks are NOT internally synchronized — a
/// sink's Consume()/Done() must be called by one producer at a time (the
/// sharded engine's shard tasks fill private collections and merge on the
/// calling thread). Only BudgetedSinks over one atomic BudgetMeter may
/// spend from different threads; any other shared stateful sink is a
/// data race (caught by the tools/check.sh --tsan build).
class BlockSink {
 public:
  virtual ~BlockSink() = default;

  /// Receives one block, borrowed for the call: its ids stay valid only
  /// until Consume returns, so a sink that keeps a block copies it. Blocks
  /// with fewer than 2 records carry no comparisons; techniques normally
  /// skip emitting them.
  virtual void Consume(Block block) = 0;

  /// Backpressure signal: once true, the sink no longer wants blocks.
  /// Techniques poll this in their emission loops and stop early; a
  /// technique that cannot stop mid-phase may still Consume afterwards and
  /// the sink must tolerate (typically drop) those blocks.
  virtual bool Done() const { return false; }

  /// End-of-stream signal for sink chains. Buffering sinks (pipeline
  /// barrier stages such as meta-blocking) run their deferred phase here,
  /// emit downstream, and cascade the flush; pass-through sinks forward
  /// it; terminal sinks ignore it (the default). Techniques never call
  /// Flush — the pipeline runner does, exactly once, after the producing
  /// technique returns.
  virtual void Flush() {}
};

/// Sink that keeps only the aggregate counts a quality sweep needs — block
/// count, Σ|b|, Σ|b|(|b|-1)/2 and the largest block — without storing any
/// block. O(1) memory regardless of output size.
///
/// Terminal by default; constructed with a `next` sink it counts and
/// forwards, so it can measure the block/pair stream in front of any
/// sink.
class PairCountingSink : public BlockSink {
 public:
  PairCountingSink() = default;
  explicit PairCountingSink(BlockSink& next) : next_(&next) {}

  void Consume(Block block) override {
    ++num_blocks_;
    const uint64_t n = block.size();
    comparisons_ += n * (n - 1) / 2;
    total_block_sizes_ += n;
    max_block_size_ = std::max<uint64_t>(max_block_size_, n);
    if (next_ != nullptr) next_->Consume(block);
  }

  bool Done() const override { return next_ != nullptr && next_->Done(); }

  void Flush() override {
    if (next_ != nullptr) next_->Flush();
  }

  uint64_t num_blocks() const { return num_blocks_; }
  /// Redundancy-counting comparison count |Γm|.
  uint64_t comparisons() const { return comparisons_; }
  uint64_t total_block_sizes() const { return total_block_sizes_; }
  uint64_t max_block_size() const { return max_block_size_; }

 private:
  BlockSink* next_ = nullptr;
  uint64_t num_blocks_ = 0;
  uint64_t comparisons_ = 0;
  uint64_t total_block_sizes_ = 0;
  uint64_t max_block_size_ = 0;
};

/// Budget gate on a block stream: forwards blocks to an inner sink while
/// a shared BudgetMeter has budget, then reports Done so the producing
/// technique can stop early (progressive / budgeted blocking). Each block
/// spends its redundancy-counting comparisons |b|(|b|-1)/2; the block
/// that crosses the budget is still forwarded, so the forwarded total may
/// exceed the pair limit by less than one block per producer.
///
/// The meter's countdown is atomic, so concurrent producers account
/// against one global budget by giving each its own BudgetedSink over the
/// same meter (the inner sink still needs its own thread-safety if
/// shared). The dropped-block counter is per-instance plain state, exact
/// under the one-producer-per-sink contract.
class BudgetedSink : public BlockSink {
 public:
  BudgetedSink(BlockSink& inner, std::shared_ptr<BudgetMeter> meter)
      : inner_(&inner), meter_(std::move(meter)) {}

  void Consume(Block block) override {
    const uint64_t n = block.size();
    if (!meter_->Spend(n * (n - 1) / 2)) {
      ++dropped_blocks_;
      return;
    }
    inner_->Consume(block);
  }

  bool Done() const override {
    return meter_->Exhausted() || inner_->Done();
  }

  /// End-of-stream always reaches the inner chain, even once the budget
  /// is spent — a downstream barrier stage still needs its flush.
  void Flush() override { inner_->Flush(); }

  const std::shared_ptr<BudgetMeter>& meter() const { return meter_; }

  /// Blocks received after the budget was exhausted (from techniques that
  /// cannot stop mid-phase). Zero when the producer honours Done().
  uint64_t dropped_blocks() const { return dropped_blocks_; }

 private:
  BlockSink* inner_;
  std::shared_ptr<BudgetMeter> meter_;
  uint64_t dropped_blocks_ = 0;
};

/// Emits the sliding windows of sorted neighbourhood over `order`: every
/// run of `window` consecutive records, front to back, polling Done()
/// before each, each a subspan of `order`. A sequence no longer than the
/// window is one block. The batch technique and its incremental index
/// both emit through this.
inline void EmitWindows(Block order, size_t window, BlockSink& sink) {
  const size_t n = order.size();
  if (n < 2) return;
  if (window >= n) {
    sink.Consume(order);
    return;
  }
  for (size_t start = 0; start + window <= n; ++start) {
    if (sink.Done()) return;
    sink.Consume(order.subspan(start, window));
  }
}

}  // namespace sablock::core

#endif  // SABLOCK_CORE_BLOCK_SINK_H_
