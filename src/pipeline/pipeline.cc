#include "pipeline/pipeline.h"

#include <algorithm>
#include <utility>

#include "api/registry.h"
#include "obs/metrics.h"
#include "pipeline/stage_registry.h"

namespace sablock::pipeline {

namespace {

/// Block-size edges: powers of 4 from 2 to 2^17 — resolution where
/// purge/meta decisions happen, one overflow bucket for the monsters.
std::vector<double> SizeBuckets() {
  std::vector<double> bounds;
  for (double edge = 2.0; edge <= 131072.0; edge *= 4.0) {
    bounds.push_back(edge);
  }
  return bounds;
}

}  // namespace

// Instruments are resolved once per chain instantiation (one registry
// lock per step and run, not per block) and updated once per flush; a
// block costs only the plain fields. Labeled by the stage's registry spec
// name so all instances of a stage kind aggregate into one
// low-cardinality series.
Chain::Observer::Observer(core::BlockSink& next,
                          const std::string& stage_label, bool boundary)
    : next_(&next), boundary_(boundary) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  blocks_ = registry.GetCounter("blocks_emitted",
                                "blocks emitted per pipeline stage", "stage",
                                stage_label);
  comparisons_ = registry.GetCounter(
      "comparisons_emitted",
      "pairwise comparisons (sum |b|(|b|-1)/2) emitted per pipeline stage",
      "stage", stage_label);
  block_size_ = registry.GetHistogram(
      "block_size", "emitted block-size distribution per pipeline stage",
      SizeBuckets(), "stage", stage_label);
  size_buckets_.assign(block_size_->bounds().size() + 1, 0);
}

void Chain::Observer::Consume(core::Block block) {
  const uint64_t n = block.size();
  ++counts_.blocks;
  counts_.comparisons += n * (n - 1) / 2;
  counts_.max_block_size = std::max(counts_.max_block_size, n);
  ++size_buckets_[block_size_->BucketIndex(static_cast<double>(n))];
  size_sum_ += n;
  next_->Consume(block);
}

void Chain::Observer::Flush() {
  blocks_->Add(counts_.blocks);
  comparisons_->Add(counts_.comparisons);
  block_size_->Add(size_buckets_, static_cast<double>(size_sum_));
  if (boundary_) return;
  WallTimer timer;
  next_->Flush();
  flush_seconds_ = timer.Seconds();
}

std::vector<StepCounts> Chain::Flush() {
  head().Flush();
  const double total = timer_.Seconds();
  span_.reset();
  // Observer k's flush encloses every later one, so each step's share is
  // the difference of consecutive flush times and the shares telescope
  // to the total.
  std::vector<StepCounts> steps;
  steps.reserve(observers_.size());
  double upstream = total;
  for (size_t k = 0; k < observers_.size(); ++k) {
    StepCounts step = observers_[k]->counts();
    step.name = k == 0 ? "generator" : stages_[k - 1]->name();
    step.seconds = upstream - observers_[k]->flush_seconds();
    upstream = observers_[k]->flush_seconds();
    steps.push_back(std::move(step));
  }
  return steps;
}

std::string Pipeline::name() const {
  std::string out;
  for (const auto& stage : stages_) {
    if (!out.empty()) out += " | ";
    out += stage->name();
  }
  return out;
}

Chain Pipeline::Instantiate(const data::Dataset& dataset,
                            core::BlockSink& sink,
                            obs::TraceId trace) const {
  Chain chain;
  chain.trace_ = trace == 0 ? obs::NextTraceId() : trace;
  chain.span_ = std::make_unique<obs::ObsSpan>("pipeline.run", chain.trace_);
  const size_t n = stages_.size();
  chain.stages_.resize(n);
  chain.observers_.resize(n + 1);
  // Wire back-to-front: the last observer is the boundary in front of
  // the caller's sink, and every stage forwards into its own observer,
  // which forwards into the next stage.
  core::BlockSink* next = &sink;
  for (size_t k = n + 1; k-- > 0;) {
    chain.observers_[k] = std::make_unique<Chain::Observer>(
        *next, k == 0 ? "generator" : stages_[k - 1]->spec_name(),
        /*boundary=*/k == n);
    if (k == 0) break;
    chain.stages_[k - 1] = stages_[k - 1]->Clone();
    chain.stages_[k - 1]->Attach(dataset, *chain.observers_[k]);
    next = chain.stages_[k - 1].get();
  }
  return chain;
}

std::vector<StepCounts> Pipeline::Run(const core::BlockingTechnique& technique,
                                      const data::Dataset& dataset,
                                      core::BlockSink& sink,
                                      obs::TraceId trace) const {
  Chain chain = Instantiate(dataset, sink, trace);
  technique.Run(dataset, chain.head());
  std::vector<StepCounts> steps = chain.Flush();
  steps[0].name = technique.name();
  return steps;
}

std::string PipelinedBlocker::name() const {
  std::string out = blocker_->name();
  if (!stages_.empty()) out += " | " + stages_.name();
  return out;
}

Status Build(api::PipelineSpec spec, std::unique_ptr<PipelinedBlocker>* out) {
  out->reset();
  std::unique_ptr<core::BlockingTechnique> blocker;
  Status status =
      api::BlockerRegistry::Global().Create(std::move(spec.blocker), &blocker);
  if (!status.ok()) return status;
  Pipeline stages;
  for (api::BlockerSpec& stage_spec : spec.stages) {
    std::unique_ptr<PipelineStage> stage;
    status = StageRegistry::Global().Create(std::move(stage_spec), &stage);
    if (!status.ok()) return status;
    stages.Add(std::move(stage));
  }
  *out = std::make_unique<PipelinedBlocker>(std::move(blocker),
                                            std::move(stages));
  return Status::Ok();
}

Status Build(const std::string& spec_string,
             std::unique_ptr<PipelinedBlocker>* out) {
  out->reset();
  api::PipelineSpec spec;
  Status status = api::PipelineSpec::Parse(spec_string, &spec);
  if (!status.ok()) return status;
  return Build(std::move(spec), out);
}

}  // namespace sablock::pipeline
