#ifndef SABLOCK_ENGINE_SHARDED_EXECUTOR_H_
#define SABLOCK_ENGINE_SHARDED_EXECUTOR_H_

#include <vector>

#include "core/block_sink.h"
#include "core/blocking.h"
#include "data/record.h"
#include "engine/execution_spec.h"
#include "pipeline/pipeline.h"

namespace sablock::engine {

/// Half-open contiguous range of record ids [begin, end) forming one
/// shard of a dataset.
struct ShardRange {
  data::RecordId begin = 0;
  data::RecordId end = 0;

  size_t size() const { return end - begin; }
};

/// Splits [0, num_records) into up to `num_shards` contiguous near-equal
/// ranges (sizes differ by at most 1; the first num_records % num_shards
/// ranges are the longer ones). Never produces empty ranges: with fewer
/// records than shards the result has one range per record, and an empty
/// dataset yields no ranges.
std::vector<ShardRange> MakeShardRanges(size_t num_records, int num_shards);

/// Sink adapter translating shard-local record ids back to global dataset
/// ids: a technique running on Dataset::Slice(begin, end) emits ids in
/// [0, end-begin); adding `offset` = begin recovers the original ids. The
/// shifted ids go out through one buffer the sink reuses for every block.
class OffsetSink : public core::BlockSink {
 public:
  OffsetSink(core::BlockSink& inner, data::RecordId offset)
      : inner_(&inner), offset_(offset) {}

  void Consume(core::Block block) override {
    shifted_.clear();
    for (data::RecordId id : block) shifted_.push_back(id + offset_);
    inner_->Consume(shifted_);
  }

  bool Done() const override { return inner_->Done(); }

  void Flush() override { inner_->Flush(); }

 private:
  core::BlockSink* inner_;
  data::RecordId offset_;
  std::vector<data::RecordId> shifted_;
};

/// Runs any BlockingTechnique over a dataset partitioned into record
/// shards, one concurrent task per shard on a ThreadPool. Blocks never
/// span shards (cross-shard record pairs are not candidates), so the
/// shard count is part of the computation's definition while the thread
/// count is not:
///
///   results depend on (technique, dataset, shards) — never on threads.
///
/// Each shard task fills its own BlockCollection (ids offset back to the
/// dataset); once all have finished, the collections drain into the
/// caller's sink in shard order, on the calling thread. So the output is
/// the shard-order concatenation of the per-slice runs, no sink is called
/// from two threads, and a core::BudgetedSink in front of the sink (one
/// budget for the whole run) receives a prefix of that sequence.
class ShardedExecutor {
 public:
  explicit ShardedExecutor(ExecutionSpec spec);

  /// Runs `technique` over `dataset` under the spec, emitting every block
  /// (with global record ids) into `sink` in shard order. With one shard
  /// this is technique.Run(dataset, sink) itself.
  void Execute(const core::BlockingTechnique& technique,
               const data::Dataset& dataset, core::BlockSink& sink) const;

  /// Runs `technique` sharded and `stages` once, globally: the merge
  /// feeds one stage chain, flushed once at its end, so barrier stages
  /// (meta-blocking) run their graph phase over the full cross-shard
  /// stream.
  ///
  /// Returns the run's steps like Pipeline::Run: the generator's
  /// seconds span the whole sharded phase, merge included.
  ///
  /// Contrast with Execute(PipelinedBlocker(...)), which instantiates
  /// the whole pipeline independently inside every shard (per-shard
  /// graphs over per-shard blocks). `technique` here should be a plain
  /// generator: a technique that flushes a shared sink per shard would
  /// fire the global barrier early.
  std::vector<pipeline::StepCounts> ExecutePipeline(
      const core::BlockingTechnique& technique,
      const pipeline::Pipeline& stages, const data::Dataset& dataset,
      core::BlockSink& sink) const;

  const ExecutionSpec& spec() const { return spec_; }

 private:
  ExecutionSpec spec_;
};

}  // namespace sablock::engine

#endif  // SABLOCK_ENGINE_SHARDED_EXECUTOR_H_
