#ifndef SABLOCK_PIPELINE_PIPELINE_H_
#define SABLOCK_PIPELINE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "api/pipeline_spec.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/blocking.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pipeline/stage.h"

namespace sablock::pipeline {

/// A wired, single-use instance of a pipeline's stage chain, and the one
/// instrument of a pipeline run: the stages are attached back-to-front
/// onto a final sink with an Observer after the producer and after every
/// stage, head() is where the producer emits, and Flush() ends the stream
/// (cascading through every stage, which is when barrier stages run) and
/// returns what every step emitted and the wall time it accounts for.
/// Created by Pipeline::Instantiate; movable so it can be returned by
/// value.
///
/// The flush stops at the chain boundary: blocks and Done() flow through
/// to the caller's sink, but the caller's sink's own Flush() is never
/// invoked. Flush ownership does not cross an ownership boundary — so a
/// PipelinedBlocker running one chain per record shard cannot fire an
/// outer shared barrier stage once per shard.
///
/// Each observer counts what its step emits in plain fields (a chain has
/// one producer at a time, the sink contract): blocks, comparisons, the
/// largest block, and the block-size histogram's bucket counts and sum.
/// It publishes them once, from its own Flush (the boundary observer
/// too), to the process-wide `blocks_emitted{stage=...}` /
/// `comparisons_emitted{stage=...}` counters and per-stage `block_size`
/// histogram, labeled by the stage's registry spec name ("generator" for
/// the producer) — so a block costs no atomic operation, and the series
/// move when the chain flushes. It times only the Flush it forwards, so a
/// run costs O(steps) clock reads: the generator's seconds are the phase
/// before Flush (including the per-block work of the streaming stages it
/// drives), a stage's are its own flush minus the next stage's, and the
/// steps sum to the run. The chain's trace id (minted by the runner, or
/// threaded in from a serving request) tags the chain-lifetime
/// `pipeline.run` span.
class Chain {
 public:
  /// The sink the block producer writes into (the generator's observer).
  core::BlockSink& head() { return *observers_.front(); }

  /// Ends the stream: call exactly once, after the producer returns.
  /// Closes the chain's trace span and returns the run's steps: [0] is
  /// the producer (named "generator"; Pipeline::Run and the engine name
  /// it after the technique), then one per stage in chain order.
  std::vector<StepCounts> Flush();

  /// The trace id every span and stage observation of this chain run
  /// carries (0 when instantiated untraced).
  obs::TraceId trace() const { return trace_; }

 private:
  friend class Pipeline;

  /// Counts and forwards one step's output, and publishes the counts on
  /// Flush (see class comment). The last observer is the chain boundary:
  /// it publishes, then absorbs the flush.
  class Observer : public core::BlockSink {
   public:
    Observer(core::BlockSink& next, const std::string& stage_label,
             bool boundary);
    void Consume(core::Block block) override;
    bool Done() const override { return next_->Done(); }
    void Flush() override;

    /// What the step emitted so far (name and seconds unset).
    const StepCounts& counts() const { return counts_; }
    /// Wall time the forwarded Flush spent downstream (0 at the boundary).
    double flush_seconds() const { return flush_seconds_; }

   private:
    core::BlockSink* next_;
    bool boundary_;
    StepCounts counts_;
    std::vector<uint64_t> size_buckets_;  // block_size_'s buckets, unpublished
    uint64_t size_sum_ = 0;               // Σ|b| of the counted blocks
    double flush_seconds_ = 0.0;
    obs::Counter* blocks_;
    obs::Counter* comparisons_;
    obs::Histogram* block_size_;
  };

  std::vector<std::unique_ptr<PipelineStage>> stages_;
  /// observers_[0] follows the producer, observers_[k] stage k.
  std::vector<std::unique_ptr<Observer>> observers_;
  obs::TraceId trace_ = 0;
  std::unique_ptr<obs::ObsSpan> span_;  // chain lifetime (until Flush)
  WallTimer timer_;  // from wiring to the end of Flush: the whole run
};

/// An ordered sequence of prototype stages. The pipeline itself holds no
/// run state: Instantiate() clones every stage into a fresh wired Chain,
/// so a const Pipeline can serve many runs concurrently (the sharded
/// engine runs one chain per record shard when the pipeline executes
/// inside a PipelinedBlocker).
class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  void Add(std::unique_ptr<PipelineStage> stage) {
    stages_.push_back(std::move(stage));
  }

  bool empty() const { return stages_.empty(); }
  size_t size() const { return stages_.size(); }
  const std::vector<std::unique_ptr<PipelineStage>>& stages() const {
    return stages_;
  }

  /// " | "-joined stage names, e.g. "purge(max_size=500) | meta(WEP+CBS)".
  std::string name() const;

  /// Clones the stages into a chain emitting into `sink`. `trace` tags
  /// the chain's span and stage observations; 0 mints a fresh id (pass a
  /// request's id to thread serving-path traces through the chain).
  Chain Instantiate(const data::Dataset& dataset, core::BlockSink& sink,
                    obs::TraceId trace = 0) const;

  /// Runs `technique` through a fresh chain into `sink`, flushes, and
  /// returns the steps (Chain::Flush) with the generator named after
  /// `technique`.
  std::vector<StepCounts> Run(const core::BlockingTechnique& technique,
                              const data::Dataset& dataset,
                              core::BlockSink& sink,
                              obs::TraceId trace = 0) const;

 private:
  std::vector<std::unique_ptr<PipelineStage>> stages_;
};

/// A blocking technique with a pipeline bolted on: Run() sends the
/// wrapped generator's blocks through the stage chain. This is how a
/// pipeline drops into every existing technique-shaped slot — the eval
/// harness, the sharded engine (which then applies the whole pipeline
/// independently per record shard), the CLI.
class PipelinedBlocker : public core::BlockingTechnique {
 public:
  PipelinedBlocker(std::unique_ptr<core::BlockingTechnique> blocker,
                   Pipeline stages)
      : blocker_(std::move(blocker)), stages_(std::move(stages)) {}

  std::string name() const override;
  void Run(const data::Dataset& dataset,
           core::BlockSink& sink) const override {
    stages_.Run(*blocker_, dataset, sink);
  }

  const core::BlockingTechnique& blocker() const { return *blocker_; }
  const Pipeline& stages() const { return stages_; }

 private:
  std::unique_ptr<core::BlockingTechnique> blocker_;
  Pipeline stages_;
};

/// Builds a PipelinedBlocker from a parsed spec: the generator through
/// api::BlockerRegistry, every stage through StageRegistry. Taken by
/// value — the factories consume the parameter maps.
Status Build(api::PipelineSpec spec, std::unique_ptr<PipelinedBlocker>* out);

/// Parses "blocker | stage | stage" and builds. A bare blocker spec is a
/// zero-stage pipeline. Every malformed pipeline spec (unknown blocker or
/// stage, bad parameter, empty segment) is a diagnostic Status with no
/// product, never a CHECK failure.
Status Build(const std::string& spec_string,
             std::unique_ptr<PipelinedBlocker>* out);

}  // namespace sablock::pipeline

#endif  // SABLOCK_PIPELINE_PIPELINE_H_
