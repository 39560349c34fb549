#include "eval/harness.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/timer.h"
#include "engine/sharded_executor.h"

namespace sablock::eval {

namespace {

PipelineResult RunPipelineImpl(const core::BlockingTechnique& blocker,
                               const pipeline::Pipeline& stages,
                               const data::Dataset& dataset,
                               const engine::ExecutionSpec* spec,
                               bool evaluate) {
  PipelineResult result;
  result.name = blocker.name();
  if (!stages.empty()) result.name += " | " + stages.name();

  // Cold-path timing, like RunTechnique: the run pays the full feature
  // build so pipelines are comparable with plain techniques. The chain's
  // own observers count and time every step.
  data::Dataset cold = dataset.ColdCopy();
  WallTimer timer;
  result.stages =
      spec == nullptr
          ? stages.Run(blocker, cold, result.blocks)
          : engine::ShardedExecutor(*spec).ExecutePipeline(
                blocker, stages, cold, result.blocks);
  result.seconds = timer.Seconds();

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
