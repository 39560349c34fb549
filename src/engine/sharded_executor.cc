#include "engine/sharded_executor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "engine/thread_pool.h"
#include "features/feature_store.h"
#include "obs/metrics.h"

namespace sablock::engine {

namespace {

/// Runs the technique on one shard into the shard's own collection,
/// translating the shard-local ids the technique emits back to global ids
/// via `range.begin`. Slice() is a zero-copy view: the shard shares the
/// parent dataset's string arena and FeatureStore, so per-record features
/// (normalized text, shingle sets, minhash signatures) are computed once
/// for the whole dataset and reused by every concurrent shard.
///
/// Per-shard telemetry: record/block throughput counters plus a
/// per-shard wall-time histogram, so a starved or skewed shard shows up
/// on a live process instead of only in post-hoc bench output.
void RunShard(const core::BlockingTechnique& technique,
              const data::Dataset& dataset, ShardRange range,
              core::BlockCollection& out) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const shards =
      registry.GetCounter("engine_shards", "shard tasks executed");
  static obs::Counter* const records = registry.GetCounter(
      "engine_shard_records", "records processed by shard tasks");
  static obs::Counter* const blocks = registry.GetCounter(
      "engine_shard_blocks", "blocks emitted by shard tasks");
  static obs::Histogram* const seconds = registry.GetHistogram(
      "engine_shard_seconds", "per-shard execution wall time",
      obs::Histogram::LatencyBuckets());

  WallTimer timer;
  data::Dataset shard = dataset.Slice(range.begin, range.end);
  OffsetSink offset(out, range.begin);
  technique.Run(shard, offset);
  seconds->Observe(timer.Seconds());
  shards->Add(1);
  records->Add(range.size());
  blocks->Add(out.NumBlocks());
}

}  // namespace

std::vector<ShardRange> MakeShardRanges(size_t num_records, int num_shards) {
  SABLOCK_CHECK_MSG(num_shards >= 1, "shard count must be >= 1");
  size_t shards = std::min<size_t>(static_cast<size_t>(num_shards),
                                   std::max<size_t>(num_records, 1));
  std::vector<ShardRange> ranges;
  if (num_records == 0) return ranges;
  ranges.reserve(shards);
  const size_t base = num_records / shards;
  const size_t extra = num_records % shards;  // first `extra` get base + 1
  size_t begin = 0;
  for (size_t s = 0; s < shards; ++s) {
    size_t size = base + (s < extra ? 1 : 0);
    ranges.push_back({static_cast<data::RecordId>(begin),
                      static_cast<data::RecordId>(begin + size)});
    begin += size;
  }
  SABLOCK_CHECK(begin == num_records);
  return ranges;
}

ShardedExecutor::ShardedExecutor(ExecutionSpec spec) : spec_(spec) {
  SABLOCK_CHECK_MSG(spec_.threads >= 1, "ExecutionSpec.threads must be >= 1");
  SABLOCK_CHECK_MSG(spec_.shards >= 0, "ExecutionSpec.shards must be >= 0");
}

void ShardedExecutor::Execute(const core::BlockingTechnique& technique,
                              const data::Dataset& dataset,
                              core::BlockSink& sink) const {
  const std::vector<ShardRange> ranges =
      MakeShardRanges(dataset.size(), spec_.ResolvedShards());
  if (ranges.empty()) return;

  // One shard is the unsharded computation: run straight into the sink
  // (no slicing, no merge). This keeps "threads=1,shards=1" bit-identical
  // with — and as fast as — a plain technique.Run(dataset, sink).
  if (ranges.size() == 1) {
    technique.Run(dataset, sink);
    return;
  }

  // Materialize the dataset's feature store *before* slicing so every
  // shard inherits the same cache instead of lazily creating its own.
  // Each feature column is then computed once for the whole dataset: the
  // first shard to request a cold column starts its build, and every
  // shard that requests it meanwhile helps, claiming record chunks, so a
  // cold start runs on all the engine's threads (FeatureStore).
  dataset.features();

  const int threads =
      std::min(spec_.threads, static_cast<int>(ranges.size()));

  // Materialize per shard, then merge in shard order so the output is
  // independent of scheduling. Each task writes only its own vector
  // element; the pool's Wait() orders those writes before the merge
  // reads them.
  std::vector<core::BlockCollection> per_shard(ranges.size());
  if (threads == 1) {
    for (size_t s = 0; s < ranges.size(); ++s) {
      RunShard(technique, dataset, ranges[s], per_shard[s]);
    }
  } else {
    ThreadPool pool(threads);
    for (size_t s = 0; s < ranges.size(); ++s) {
      core::BlockCollection* out = &per_shard[s];
      const ShardRange range = ranges[s];
      pool.Submit([&technique, &dataset, range, out] {
        RunShard(technique, dataset, range, *out);
      });
    }
    pool.Wait();
  }
  // Drain releases each shard's arrays as soon as that shard is merged.
  for (core::BlockCollection& collection : per_shard) {
    collection.Drain(sink);
    if (sink.Done()) return;
  }
}

std::vector<pipeline::StepCounts> ShardedExecutor::ExecutePipeline(
    const core::BlockingTechnique& technique,
    const pipeline::Pipeline& stages, const data::Dataset& dataset,
    core::BlockSink& sink) const {
  pipeline::Chain chain = stages.Instantiate(dataset, sink);
  // Execute's producers have all finished when it returns (the merge
  // drains into chain.head() on this thread), so this is the single
  // end-of-stream point — the barrier stages run here, at merge.
  Execute(technique, dataset, chain.head());
  std::vector<pipeline::StepCounts> steps = chain.Flush();
  steps[0].name = technique.name();
  return steps;
}

}  // namespace sablock::engine
