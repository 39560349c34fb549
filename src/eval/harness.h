#ifndef SABLOCK_EVAL_HARNESS_H_
#define SABLOCK_EVAL_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/blocking.h"
#include "engine/execution_spec.h"
#include "eval/metrics.h"
#include "pipeline/pipeline.h"

namespace sablock::eval {

/// The outcome of running one blocking technique (one parameter setting)
/// on one dataset — a row of the Table 3 / Fig. 11 reproductions.
struct TechniqueResult {
  std::string name;
  Metrics metrics;
  double seconds = 0.0;
};

/// Runs a technique, timing block construction (the Table 3 "Time" column
/// measures block building only, as in the paper). Timing is cold-path:
/// the technique runs against a detached feature cache (Dataset::ColdCopy)
/// so the reported seconds are end-to-end and independent of which
/// technique the harness happened to run first.
TechniqueResult RunTechnique(const core::BlockingTechnique& technique,
                             const data::Dataset& dataset);

/// Runs a technique through the sharded execution engine under `spec`,
/// timing the sharded block construction (slice + per-shard runs + merge).
/// With spec {threads=1, shards=1} this is RunTechnique through the
/// engine's fast path.
TechniqueResult RunTechniqueSharded(const core::BlockingTechnique& technique,
                                    const data::Dataset& dataset,
                                    const engine::ExecutionSpec& spec);

/// The outcome of one pipeline run: per-step counts (element [0] is the
/// generator, then one entry per stage in chain order; see
/// pipeline::Chain), the final block collection, its quality metrics and
/// the end-to-end build time.
struct PipelineResult {
  std::string name;
  std::vector<pipeline::StepCounts> stages;
  core::BlockCollection blocks;
  Metrics metrics;
  double seconds = 0.0;
};

/// Runs a block generator through a pipeline's stage chain, reporting
/// how each step reshaped the block/pair stream and where the time went
/// (the chain's own per-step observers). Cold-path timing, like
/// RunTechnique. `evaluate=false` skips the quality-metrics pass (a
/// distinct-pair scan over the final blocks, wasted work on all but the
/// last of a timing loop's repetitions) and leaves `metrics` default.
PipelineResult RunPipeline(const core::BlockingTechnique& blocker,
                           const pipeline::Pipeline& stages,
                           const data::Dataset& dataset,
                           bool evaluate = true);

/// RunPipeline with the generator executed by the sharded engine under
/// `spec`; the stage chain runs once, globally, with barrier stages
/// firing at merge (ShardedExecutor::ExecutePipeline semantics).
PipelineResult RunPipelineSharded(const core::BlockingTechnique& blocker,
                                  const pipeline::Pipeline& stages,
                                  const data::Dataset& dataset,
                                  const engine::ExecutionSpec& spec,
                                  bool evaluate = true);

/// Runs every setting and returns all results.
std::vector<TechniqueResult> RunAll(
    const std::vector<std::unique_ptr<core::BlockingTechnique>>& settings,
    const data::Dataset& dataset);

/// Index of the result with the highest FM (the paper reports each
/// technique at its best-performing setting). Returns 0 for empty input.
size_t BestByFm(const std::vector<TechniqueResult>& results);

/// Fixed-width console table writer used by the bench binaries to print
/// paper-style tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds a row. Rows shorter than the header are padded with empty
  /// cells; rows longer than the header CHECK-fail (caller bug).
  void AddRow(std::vector<std::string> cells);

  /// Renders the table with aligned columns to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sablock::eval

#endif  // SABLOCK_EVAL_HARNESS_H_
