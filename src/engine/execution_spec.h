#ifndef SABLOCK_ENGINE_EXECUTION_SPEC_H_
#define SABLOCK_ENGINE_EXECUTION_SPEC_H_

#include <string>

#include "common/status.h"

namespace sablock::engine {

/// How the sharded executor runs a technique over a dataset. The textual
/// form reuses the blocker-spec parameter grammar
/// ("key=val,key=val", see api::ParamMap):
///
///   "threads=4,shards=8"
///
/// Semantics:
///  - threads: worker count, in [1, ThreadPool::kMaxThreads]. Purely an
///    execution property — it never changes the produced blocks.
///  - shards:  number of record partitions (>= 1), or 0 (the default) to
///    follow `threads`. A computation property: the merged result depends
///    on the shard count (blocks never span shards), so pin shards
///    explicitly when comparing runs across thread counts.
struct ExecutionSpec {
  int threads = 1;
  int shards = 0;  // 0 = follow threads

  /// The effective shard count: `shards`, or `threads` when shards == 0.
  int ResolvedShards() const { return shards > 0 ? shards : threads; }

  /// Parses "threads=N,shards=M" (every key optional; empty text is the
  /// default spec). "merge=collect", the name of the one shard-order
  /// merge, is accepted; unknown keys, malformed values, any other merge,
  /// threads outside [1, ThreadPool::kMaxThreads] and shards < 0 are
  /// errors.
  static Status Parse(const std::string& text, ExecutionSpec* out);
};

}  // namespace sablock::engine

#endif  // SABLOCK_ENGINE_EXECUTION_SPEC_H_
