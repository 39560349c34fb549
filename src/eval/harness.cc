#include "eval/harness.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/timer.h"
#include "engine/sharded_executor.h"

namespace sablock::eval {

namespace {

/// Accumulates the wall time spent in everything downstream of itself
/// (Consume and Flush both count). Interposed after every pipeline step,
/// the difference between consecutive timers is that step's exclusive
/// cost.
class TimedSink : public core::BlockSink {
 public:
  explicit TimedSink(core::BlockSink& next) : next_(&next) {}

  void Consume(core::Block block) override {
    WallTimer timer;
    next_->Consume(std::move(block));
    seconds_ += timer.Seconds();
  }

  bool Done() const override { return next_->Done(); }

  void Flush() override {
    WallTimer timer;
    next_->Flush();
    seconds_ += timer.Seconds();
  }

  double seconds() const { return seconds_; }

 private:
  core::BlockSink* next_;
  double seconds_ = 0.0;
};

PipelineResult RunPipelineImpl(const core::BlockingTechnique& blocker,
                               const pipeline::Pipeline& stages,
                               const data::Dataset& dataset,
                               const engine::ExecutionSpec* spec,
                               bool evaluate) {
  PipelineResult result;
  result.name = blocker.name();
  if (!stages.empty()) result.name += " | " + stages.name();

  // Cold-path timing, like RunTechnique: the run pays the full feature
  // build so pipelines are comparable with plain techniques.
  data::Dataset cold = dataset.ColdCopy();

  // Instrumented chain, wired back-to-front:
  //   blocker -> [count0 timed0] -> stage1 -> [count1 timed1] -> ... ->
  //   stageN -> [countN timedN] -> final
  // count_k observes the stream emitted by step k; timed_k measures
  // everything downstream of step k, so step k's exclusive time is
  // timed_{k-1} - timed_k (and the generator's is total - timed_0).
  const size_t num_stages = stages.size();
  std::vector<std::unique_ptr<pipeline::PipelineStage>> chain(num_stages);
  std::vector<std::unique_ptr<TimedSink>> timers(num_stages + 1);
  std::vector<std::unique_ptr<core::PairCountingSink>> counters(
      num_stages + 1);
  core::BlockSink* next = &result.blocks;
  for (size_t k = num_stages + 1; k-- > 0;) {
    timers[k] = std::make_unique<TimedSink>(*next);
    counters[k] = std::make_unique<core::PairCountingSink>(*timers[k]);
    if (k == 0) break;
    chain[k - 1] = stages.stages()[k - 1]->Clone();
    chain[k - 1]->Attach(cold, *counters[k]);
    next = chain[k - 1].get();
  }
  core::BlockSink& head = *counters[0];

  WallTimer timer;
  if (spec != nullptr) {
    engine::ShardedExecutor(*spec).Execute(blocker, cold, head);
  } else {
    blocker.Run(cold, head);
  }
  head.Flush();
  result.seconds = timer.Seconds();

  result.stages.reserve(num_stages + 1);
  double downstream = result.seconds;
  for (size_t k = 0; k <= num_stages; ++k) {
    StageCounts counts;
    counts.name = k == 0 ? blocker.name() : chain[k - 1]->name();
    counts.blocks = counters[k]->num_blocks();
    counts.comparisons = counters[k]->comparisons();
    counts.max_block_size = counters[k]->max_block_size();
    counts.seconds = std::max(0.0, downstream - timers[k]->seconds());
    downstream = timers[k]->seconds();
    result.stages.push_back(std::move(counts));
  }

  if (evaluate) result.metrics = Evaluate(dataset, result.blocks);
  return result;
}

}  // namespace

PipelineResult RunPipeline(const core::BlockingTechnique& blocker,
                           const pipeline::Pipeline& stages,
                           const data::Dataset& dataset, bool evaluate) {
  return RunPipelineImpl(blocker, stages, dataset, nullptr, evaluate);
}

PipelineResult RunPipelineSharded(const core::BlockingTechnique& blocker,
                                  const pipeline::Pipeline& stages,
                                  const data::Dataset& dataset,
                                  const engine::ExecutionSpec& spec,
                                  bool evaluate) {
  return RunPipelineImpl(blocker, stages, dataset, &spec, evaluate);
}

TechniqueResult RunTechnique(const core::BlockingTechnique& technique,
                             const data::Dataset& dataset) {
  TechniqueResult result;
  result.name = technique.name();
  // Time against a detached feature cache: the harness exists to compare
  // techniques, and a shared warm FeatureStore would bias the time column
  // toward whichever technique runs later (cache reuse is benchmarked
  // explicitly in the micro scenario, not implicitly here).
  data::Dataset cold = dataset.ColdCopy();
  sablock::WallTimer timer;
  core::BlockCollection blocks;
  technique.Run(cold, blocks);
  result.seconds = timer.Seconds();
  result.metrics = Evaluate(dataset, blocks);
  return result;
}

TechniqueResult RunTechniqueSharded(const core::BlockingTechnique& technique,
                                    const data::Dataset& dataset,
                                    const engine::ExecutionSpec& spec) {
  TechniqueResult result;
  result.name = technique.name();
  engine::ShardedExecutor executor(spec);
  // Same cold-path timing as RunTechnique; the run's shards still share
  // one feature build through the cold copy's own store.
  data::Dataset cold = dataset.ColdCopy();
  sablock::WallTimer timer;
  core::BlockCollection blocks = executor.ExecuteCollect(technique, cold);
  result.seconds = timer.Seconds();
  result.metrics = Evaluate(dataset, blocks);
  return result;
}

std::vector<TechniqueResult> RunAll(
    const std::vector<std::unique_ptr<core::BlockingTechnique>>& settings,
    const data::Dataset& dataset) {
  std::vector<TechniqueResult> results;
  results.reserve(settings.size());
  for (const auto& technique : settings) {
    results.push_back(RunTechnique(*technique, dataset));
  }
  return results;
}

size_t BestByFm(const std::vector<TechniqueResult>& results) {
  size_t best = 0;
  for (size_t i = 1; i < results.size(); ++i) {
    if (results[i].metrics.fm > results[best].metrics.fm) best = i;
  }
  return best;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  // A row wider than the header is a caller bug (the extra cells would
  // vanish from the printed table); short rows are padded with empties.
  SABLOCK_CHECK_MSG(cells.size() <= headers_.size(),
                    "TablePrinter::AddRow: more cells than headers");
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (size_t c = 0; c < cells.size(); ++c) {
      line += cells[c];
      line.append(widths[c] - cells[c].size() + 2, ' ');
    }
    std::printf("%s\n", line.c_str());
  };
  print_row(headers_);
  std::string rule;
  for (size_t c = 0; c < headers_.size(); ++c) {
    rule.append(widths[c], '-');
    rule.append(2, ' ');
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
}

}  // namespace sablock::eval
