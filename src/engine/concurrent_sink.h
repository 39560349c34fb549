#ifndef SABLOCK_ENGINE_CONCURRENT_SINK_H_
#define SABLOCK_ENGINE_CONCURRENT_SINK_H_

#include <cstdint>
#include <mutex>

#include "core/block_sink.h"

namespace sablock::engine {

/// Thread-safe adapter making any single-threaded BlockSink usable from
/// concurrent producers: every Consume() and Done() call on the wrapped
/// sink happens under one mutex, so the inner sink (and anything it
/// forwards to) observes a serial call sequence.
///
/// This is the concurrency contract of the whole sink layer: sinks
/// themselves (PairCountingSink, BlockCollection, ...) are NOT internally
/// synchronized; concurrent producers must share one ConcurrentSink
/// wrapping the chain. Because Done() also takes the mutex, a wrapped
/// BudgetedSink's accounting stays exact — a producer that observes
/// Done()==false may still lose the race for the next Consume(), but the
/// crossing block is accounted atomically and later blocks are dropped and
/// counted by the BudgetedSink, exactly as in the single-threaded case.
class ConcurrentSink : public core::BlockSink {
 public:
  explicit ConcurrentSink(core::BlockSink& inner) : inner_(&inner) {}

  void Consume(core::Block block) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->Consume(std::move(block));
    ++consumed_;
  }

  bool Done() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->Done();
  }

  /// Serialized like Consume(). Note the engine's pipeline path does not
  /// route the end-of-stream through here: the chain is flushed once,
  /// after every producer has finished (ShardedExecutor::ExecutePipeline),
  /// so barrier stages see the complete cross-shard stream.
  void Flush() override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->Flush();
  }

  /// Blocks forwarded to the inner sink so far.
  uint64_t consumed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return consumed_;
  }

 private:
  mutable std::mutex mu_;
  core::BlockSink* inner_;
  uint64_t consumed_ = 0;
};

/// Sink adapter translating shard-local record ids back to global dataset
/// ids: a technique running on Dataset::Slice(begin, end) emits ids in
/// [0, end-begin); adding `offset` = begin recovers the original ids.
/// Forwarding-only and stateless, so one per shard task is cheap; the
/// shared downstream sink provides the synchronization (ConcurrentSink)
/// or exclusivity (per-shard BlockCollection).
class OffsetSink : public core::BlockSink {
 public:
  OffsetSink(core::BlockSink& inner, data::RecordId offset)
      : inner_(&inner), offset_(offset) {}

  void Consume(core::Block block) override {
    for (data::RecordId& id : block) id += offset_;
    inner_->Consume(std::move(block));
  }

  bool Done() const override { return inner_->Done(); }

  void Flush() override { inner_->Flush(); }

 private:
  core::BlockSink* inner_;
  data::RecordId offset_;
};

}  // namespace sablock::engine

#endif  // SABLOCK_ENGINE_CONCURRENT_SINK_H_
