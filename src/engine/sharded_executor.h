#ifndef SABLOCK_ENGINE_SHARDED_EXECUTOR_H_
#define SABLOCK_ENGINE_SHARDED_EXECUTOR_H_

#include <vector>

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

/// Runs any BlockingTechnique over a dataset partitioned into record
/// shards, one concurrent task per shard on a ThreadPool. Blocks never
/// span shards (cross-shard record pairs are not candidates), so the
/// shard count is part of the computation's definition while the thread
/// count is not:
///
///   results depend on (technique, dataset, shards, merge) — never on
///   threads.
///
/// Merge modes (see ExecutionSpec): collect materializes one
/// BlockCollection per shard and merges them in shard order with record
/// ids translated back to the global dataset, giving a deterministic
/// output for any thread count; stream forwards each block through a
/// shared ConcurrentSink as soon as it is produced (order then depends on
/// scheduling, but the multiset of blocks does not).
///
/// A core::BudgetedSink in front of the caller's sink bounds the whole
/// run by one budget. In stream mode its Done() signal propagates to
/// every shard task through the ConcurrentSink, whose lock also makes the
/// spend exact; the emitted prefix then depends on scheduling. In collect
/// mode backpressure is only honoured during the final merge (shard tasks
/// materialize first), like BlockCollection::Drain, so the budgeted
/// output stays independent of the thread count.
class ShardedExecutor {
 public:
  explicit ShardedExecutor(ExecutionSpec spec);

  /// Runs `technique` over `dataset` under the spec, emitting every block
  /// (with global record ids) into `sink`. The sink itself need not be
  /// thread-safe: the executor serializes all access to it.
  void Execute(const core::BlockingTechnique& technique,
               const data::Dataset& dataset, core::BlockSink& sink) const;

  /// Collecting wrapper: runs under merge=collect semantics (regardless
  /// of the spec's merge mode) and returns the deterministic merged
  /// collection.
  core::BlockCollection ExecuteCollect(
      const core::BlockingTechnique& technique,
      const data::Dataset& dataset) const;

  /// Runs `technique` sharded and `stages` once, globally: the shard
  /// producers feed one shared stage chain — through the engine's
  /// ConcurrentSink in stream mode, or via the deterministic shard-order
  /// merge in collect mode — and the chain is flushed exactly once after
  /// every shard has finished, so barrier stages (meta-blocking) run
  /// their graph phase at merge over the full cross-shard stream.
  ///
  /// Contrast with Execute(PipelinedBlocker(...)), which instantiates
  /// the whole pipeline independently inside every shard (per-shard
  /// graphs over per-shard blocks). `technique` here should be a plain
  /// generator: a technique that flushes a shared sink per shard would
  /// fire the global barrier early.
  void ExecutePipeline(const core::BlockingTechnique& technique,
                       const pipeline::Pipeline& stages,
                       const data::Dataset& dataset,
                       core::BlockSink& sink) const;

  const ExecutionSpec& spec() const { return spec_; }

 private:
  ExecutionSpec spec_;
};

}  // namespace sablock::engine

#endif  // SABLOCK_ENGINE_SHARDED_EXECUTOR_H_
