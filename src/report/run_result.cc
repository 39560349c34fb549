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

// --- FromJson helpers: typed field readers with path-named errors. ------

Status Missing(const std::string& key) {
  return Status::Error("missing or mistyped key '" + key + "'");
}

Status ReadString(const Json& obj, const std::string& key, bool required,
                  std::string* out) {
  const Json* v = obj.Find(key);
  if (v == nullptr) {
    return required ? Missing(key) : Status::Ok();
  }
  if (v->type() != Json::Type::kString) return Missing(key);
  *out = v->string_value();
  return Status::Ok();
}

Status ReadUint(const Json& obj, const std::string& key, bool required,
                uint64_t* out) {
  const Json* v = obj.Find(key);
  if (v == nullptr) {
    return required ? Missing(key) : Status::Ok();
  }
  if (!v->is_number() || v->type() == Json::Type::kDouble ||
      (v->type() == Json::Type::kInt && v->int_value() < 0)) {
    return Missing(key);
  }
  *out = v->uint_value();
  return Status::Ok();
}

Status ReadDouble(const Json& obj, const std::string& key, bool required,
                  double* out) {
  const Json* v = obj.Find(key);
  if (v == nullptr) {
    return required ? Missing(key) : Status::Ok();
  }
  if (!v->is_number()) return Missing(key);
  *out = v->double_value();
  return Status::Ok();
}

#define SABLOCK_RETURN_IF_ERROR(expr)        \
  do {                                       \
    Status _status = (expr);                 \
    if (!_status.ok()) return _status;       \
  } while (0)

Status RepeatStatsFromJson(const Json& json, RepeatStats* out) {
  if (json.type() != Json::Type::kObject) return Missing("time");
  uint64_t repeats = 0;
  SABLOCK_RETURN_IF_ERROR(ReadUint(json, "repeats", true, &repeats));
  out->repeats = static_cast<int>(repeats);
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "min_s", true, &out->min_s));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "mean_s", true, &out->mean_s));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "p50_s", true, &out->p50_s));
  return Status::Ok();
}

Status LatencyStatsFromJson(const Json& json, LatencyStats* out) {
  if (json.type() != Json::Type::kObject) return Missing("latency");
  SABLOCK_RETURN_IF_ERROR(ReadUint(json, "ops", true, &out->ops));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "p50_us", true, &out->p50_us));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "p99_us", true, &out->p99_us));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "qps", true, &out->qps));
  return Status::Ok();
}

Status IoStatsFromJson(const Json& json, IoStats* out) {
  if (json.type() != Json::Type::kObject) return Missing("io");
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "file_bytes", true, &out->file_bytes));
  SABLOCK_RETURN_IF_ERROR(
      ReadDouble(json, "cold_load_s", true, &out->cold_load_s));
  SABLOCK_RETURN_IF_ERROR(
      ReadDouble(json, "first_query_s", true, &out->first_query_s));
  return Status::Ok();
}

Status StepCountsFromJson(const Json& json, pipeline::StepCounts* out) {
  if (json.type() != Json::Type::kObject) return Missing("stages[]");
  SABLOCK_RETURN_IF_ERROR(ReadString(json, "name", true, &out->name));
  SABLOCK_RETURN_IF_ERROR(ReadUint(json, "blocks", true, &out->blocks));
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "comparisons", true, &out->comparisons));
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "max_block_size", true, &out->max_block_size));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "seconds", true, &out->seconds));
  return Status::Ok();
}

Status MetricsFromJson(const Json& json, eval::Metrics* out) {
  if (json.type() != Json::Type::kObject) return Missing("metrics");
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "pc", true, &out->pc));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "pq", true, &out->pq));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "rr", true, &out->rr));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "fm", true, &out->fm));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "pq_star", true, &out->pq_star));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "fm_star", true, &out->fm_star));
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "distinct_pairs", true, &out->distinct_pairs));
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "true_pairs", true, &out->true_pairs));
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "total_comparisons", true, &out->total_comparisons));
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "ground_truth_pairs", true, &out->ground_truth_pairs));
  SABLOCK_RETURN_IF_ERROR(ReadUint(json, "all_pairs", true, &out->all_pairs));
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "num_blocks", true, &out->num_blocks));
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "max_block_size", true, &out->max_block_size));
  return Status::Ok();
}

Status RecallCurveFromJson(const Json& json, eval::RecallCurve* out) {
  if (json.type() != Json::Type::kObject) return Missing("recall");
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "budget_pairs", true, &out->budget_pairs));
  SABLOCK_RETURN_IF_ERROR(ReadDouble(json, "auc", true, &out->auc));
  const Json* points = json.Find("points");
  if (points == nullptr || points->type() != Json::Type::kArray) {
    return Missing("recall.points");
  }
  for (const Json& entry : points->items()) {
    eval::RecallPoint point;
    SABLOCK_RETURN_IF_ERROR(
        ReadDouble(entry, "fraction", true, &point.fraction));
    SABLOCK_RETURN_IF_ERROR(ReadDouble(entry, "recall", true, &point.recall));
    out->points.push_back(point);
  }
  return Status::Ok();
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

Status RunResultFromJson(const Json& json, RunResult* out) {
  *out = RunResult();
  if (json.type() != Json::Type::kObject) {
    return Status::Error("run is not an object");
  }
  SABLOCK_RETURN_IF_ERROR(
      ReadString(json, "scenario", true, &out->scenario));
  SABLOCK_RETURN_IF_ERROR(ReadString(json, "name", true, &out->name));
  SABLOCK_RETURN_IF_ERROR(ReadString(json, "spec", false, &out->spec));
  SABLOCK_RETURN_IF_ERROR(ReadString(json, "dataset", false, &out->dataset));
  SABLOCK_RETURN_IF_ERROR(
      ReadUint(json, "dataset_records", false, &out->dataset_records));
  if (const Json* params = json.Find("params")) {
    if (params->type() != Json::Type::kObject) return Missing("params");
    for (const auto& [key, value] : params->members()) {
      if (value.type() != Json::Type::kString) return Missing("params");
      out->AddParam(key, value.string_value());
    }
  }
  if (const Json* time = json.Find("time")) {
    SABLOCK_RETURN_IF_ERROR(RepeatStatsFromJson(*time, &out->time));
  }
  if (const Json* stages = json.Find("stages")) {
    if (stages->type() != Json::Type::kArray) return Missing("stages");
    for (const Json& stage : stages->items()) {
      pipeline::StepCounts step;
      SABLOCK_RETURN_IF_ERROR(StepCountsFromJson(stage, &step));
      out->stages.push_back(std::move(step));
    }
  }
  if (const Json* metrics = json.Find("metrics")) {
    SABLOCK_RETURN_IF_ERROR(MetricsFromJson(*metrics, &out->metrics));
    out->has_metrics = true;
  }
  if (const Json* latency = json.Find("latency")) {
    SABLOCK_RETURN_IF_ERROR(LatencyStatsFromJson(*latency, &out->latency));
    out->has_latency = true;
  }
  if (const Json* io = json.Find("io")) {
    SABLOCK_RETURN_IF_ERROR(IoStatsFromJson(*io, &out->io));
    out->has_io = true;
  }
  if (const Json* recall = json.Find("recall")) {
    SABLOCK_RETURN_IF_ERROR(RecallCurveFromJson(*recall, &out->recall));
    out->has_recall = true;
  }
  if (const Json* values = json.Find("values")) {
    if (values->type() != Json::Type::kObject) return Missing("values");
    for (const auto& [key, value] : values->members()) {
      if (!value.is_number()) return Missing("values");
      out->AddValue(key, value.double_value());
    }
  }
  return Status::Ok();
}

Status SuiteResultFromJson(const Json& json, SuiteResult* out) {
  *out = SuiteResult();
  if (json.type() != Json::Type::kObject) {
    return Status::Error("suite is not an object");
  }
  SABLOCK_RETURN_IF_ERROR(ReadString(json, "tool", true, &out->tool));
  uint64_t version = 0;
  SABLOCK_RETURN_IF_ERROR(ReadUint(json, "schema_version", true, &version));
  if (version != static_cast<uint64_t>(kSchemaVersion)) {
    return Status::Error("unsupported schema_version " +
                         std::to_string(version));
  }
  out->schema_version = static_cast<int>(version);
  const Json* quick = json.Find("quick");
  if (quick == nullptr || quick->type() != Json::Type::kBool) {
    return Missing("quick");
  }
  out->quick = quick->bool_value();
  uint64_t repeat = 0;
  SABLOCK_RETURN_IF_ERROR(ReadUint(json, "repeat", true, &repeat));
  out->repeat = static_cast<int>(repeat);
  if (const Json* scenarios = json.Find("scenarios")) {
    if (scenarios->type() != Json::Type::kArray) return Missing("scenarios");
    for (const Json& entry : scenarios->items()) {
      ScenarioOutcome outcome;
      SABLOCK_RETURN_IF_ERROR(
          ReadString(entry, "name", true, &outcome.name));
      uint64_t exit_code = 0;
      SABLOCK_RETURN_IF_ERROR(
          ReadUint(entry, "exit_code", true, &exit_code));
      outcome.exit_code = static_cast<int>(exit_code);
      SABLOCK_RETURN_IF_ERROR(
          ReadDouble(entry, "seconds", true, &outcome.seconds));
      out->scenarios.push_back(std::move(outcome));
    }
  }
  const Json* runs = json.Find("runs");
  if (runs == nullptr || runs->type() != Json::Type::kArray) {
    return Missing("runs");
  }
  for (const Json& entry : runs->items()) {
    RunResult run;
    SABLOCK_RETURN_IF_ERROR(RunResultFromJson(entry, &run));
    out->runs.push_back(std::move(run));
  }
  if (const Json* metrics = json.Find("metrics")) {
    SABLOCK_RETURN_IF_ERROR(
        obs::SnapshotFromJson(*metrics, &out->metrics_snapshot));
    out->has_metrics_snapshot = true;
  }
  return Status::Ok();
}

#undef SABLOCK_RETURN_IF_ERROR

}  // namespace sablock::report
