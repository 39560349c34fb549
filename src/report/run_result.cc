#include "report/run_result.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/export.h"

namespace sablock::report {

RepeatStats SummarizeSeconds(std::vector<double> seconds) {
  RepeatStats stats;
  if (seconds.empty()) return stats;
  std::sort(seconds.begin(), seconds.end());
  stats.repeats = static_cast<int>(seconds.size());
  stats.min_s = seconds.front();
  stats.mean_s = std::accumulate(seconds.begin(), seconds.end(), 0.0) /
                 static_cast<double>(seconds.size());
  stats.p50_s = seconds[(seconds.size() - 1) / 2];
  return stats;
}

LatencyStats SummarizeLatency(std::vector<double> op_seconds,
                              double wall_seconds) {
  LatencyStats stats;
  if (op_seconds.empty()) return stats;
  std::sort(op_seconds.begin(), op_seconds.end());
  stats.ops = op_seconds.size();
  // Nearest rank: the ceil(p*N)-th smallest sample, clamped so p=0 and
  // p=1 stay in range. For N=1 every percentile is the lone sample (the
  // pre-fix interpolation indexed off the end of degenerate windows).
  auto rank = [&](double p) {
    double r = std::ceil(p * static_cast<double>(op_seconds.size()));
    size_t idx = r < 1.0 ? 0 : static_cast<size_t>(r) - 1;
    idx = std::min(idx, op_seconds.size() - 1);
    return op_seconds[idx] * 1e6;
  };
  stats.p50_us = rank(0.50);
  stats.p99_us = rank(0.99);
  if (wall_seconds > 0.0) {
    stats.qps = static_cast<double>(op_seconds.size()) / wall_seconds;
  }
  return stats;
}

namespace {

Json ToJson(const RepeatStats& stats) {
  Json j = Json::Object();
  j.Set("repeats", static_cast<int64_t>(stats.repeats));
  j.Set("min_s", stats.min_s);
  j.Set("mean_s", stats.mean_s);
  j.Set("p50_s", stats.p50_s);
  return j;
}

Json ToJson(const pipeline::StepCounts& stage) {
  Json j = Json::Object();
  j.Set("name", stage.name);
  j.Set("blocks", stage.blocks);
  j.Set("comparisons", stage.comparisons);
  j.Set("max_block_size", stage.max_block_size);
  j.Set("seconds", stage.seconds);
  return j;
}

Json ToJson(const LatencyStats& stats) {
  Json j = Json::Object();
  j.Set("ops", stats.ops);
  j.Set("p50_us", stats.p50_us);
  j.Set("p99_us", stats.p99_us);
  j.Set("qps", stats.qps);
  return j;
}

Json ToJson(const IoStats& stats) {
  Json j = Json::Object();
  j.Set("file_bytes", stats.file_bytes);
  j.Set("cold_load_s", stats.cold_load_s);
  j.Set("first_query_s", stats.first_query_s);
  return j;
}

Json ToJson(const eval::RecallCurve& curve) {
  Json j = Json::Object();
  j.Set("budget_pairs", curve.budget_pairs);
  j.Set("auc", curve.auc);
  Json points = Json::Array();
  for (const eval::RecallPoint& point : curve.points) {
    Json p = Json::Object();
    p.Set("fraction", point.fraction);
    p.Set("recall", point.recall);
    points.Append(std::move(p));
  }
  j.Set("points", std::move(points));
  return j;
}

Json ToJson(const eval::Metrics& m) {
  Json j = Json::Object();
  j.Set("pc", m.pc);
  j.Set("pq", m.pq);
  j.Set("rr", m.rr);
  j.Set("fm", m.fm);
  j.Set("pq_star", m.pq_star);
  j.Set("fm_star", m.fm_star);
  j.Set("distinct_pairs", m.distinct_pairs);
  j.Set("true_pairs", m.true_pairs);
  j.Set("total_comparisons", m.total_comparisons);
  j.Set("ground_truth_pairs", m.ground_truth_pairs);
  j.Set("all_pairs", m.all_pairs);
  j.Set("num_blocks", m.num_blocks);
  j.Set("max_block_size", m.max_block_size);
  return j;
}

}  // namespace

Json ToJson(const RunResult& run) {
  Json j = Json::Object();
  j.Set("scenario", run.scenario);
  j.Set("name", run.name);
  if (!run.spec.empty()) j.Set("spec", run.spec);
  if (!run.dataset.empty()) {
    j.Set("dataset", run.dataset);
    j.Set("dataset_records", run.dataset_records);
  }
  if (!run.params.empty()) {
    Json params = Json::Object();
    for (const auto& [key, value] : run.params) params.Set(key, value);
    j.Set("params", std::move(params));
  }
  if (run.time.repeats > 0) j.Set("time", ToJson(run.time));
  if (!run.stages.empty()) {
    Json stages = Json::Array();
    for (const pipeline::StepCounts& stage : run.stages) {
      stages.Append(ToJson(stage));
    }
    j.Set("stages", std::move(stages));
  }
  if (run.has_metrics) j.Set("metrics", ToJson(run.metrics));
  if (run.has_latency) j.Set("latency", ToJson(run.latency));
  if (run.has_io) j.Set("io", ToJson(run.io));
  if (run.has_recall) j.Set("recall", ToJson(run.recall));
  if (!run.values.empty()) {
    Json values = Json::Object();
    for (const auto& [key, value] : run.values) values.Set(key, value);
    j.Set("values", std::move(values));
  }
  return j;
}

Json ToJson(const SuiteResult& suite) {
  Json j = Json::Object();
  j.Set("tool", suite.tool);
  j.Set("schema_version", static_cast<int64_t>(suite.schema_version));
  j.Set("quick", suite.quick);
  j.Set("repeat", static_cast<int64_t>(suite.repeat));
  Json scenarios = Json::Array();
  for (const ScenarioOutcome& outcome : suite.scenarios) {
    Json o = Json::Object();
    o.Set("name", outcome.name);
    o.Set("exit_code", static_cast<int64_t>(outcome.exit_code));
    o.Set("seconds", outcome.seconds);
    scenarios.Append(std::move(o));
  }
  j.Set("scenarios", std::move(scenarios));
  Json runs = Json::Array();
  for (const RunResult& run : suite.runs) runs.Append(ToJson(run));
  j.Set("runs", std::move(runs));
  if (suite.has_metrics_snapshot) {
    j.Set("metrics", obs::SnapshotToJson(suite.metrics_snapshot));
  }
  return j;
}

}  // namespace sablock::report
