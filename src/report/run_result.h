#ifndef SABLOCK_REPORT_RUN_RESULT_H_
#define SABLOCK_REPORT_RUN_RESULT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/metrics.h"
#include "obs/metrics.h"
#include "pipeline/stage.h"
#include "report/json.h"

namespace sablock::report {

/// Written to every suite JSON so downstream tooling (tools/
/// bench_compare.py, CI trend jobs) can reject files it does not
/// understand. Bump on any backwards-incompatible key change.
/// v2: suites carry an optional suite-level `metrics` object — the
/// process's obs::MetricsSnapshot (see obs/export.h for the shape).
/// v3: runs carry an optional `io` object (snapshot file size +
/// cold-load and first-query wall times; the `snapshot_io` scenario).
/// v4: runs carry an optional `recall` object (the recall@budget curve
/// of a progressive emission order; the `progressive_recall` scenario).
inline constexpr int kSchemaVersion = 4;

/// Wall-time statistics over a run's timing repetitions (seconds). For
/// micro-benchmarks the same shape carries seconds *per operation*.
struct RepeatStats {
  int repeats = 0;
  double min_s = 0.0;
  double mean_s = 0.0;
  double p50_s = 0.0;
};

/// Computes RepeatStats from raw per-repetition seconds (empty input
/// yields a zeroed struct). p50 is the lower median.
RepeatStats SummarizeSeconds(std::vector<double> seconds);

/// Latency distribution of a serving-path run (the `service_latency`
/// scenario): microseconds per operation plus sustained throughput.
/// Additive schema-v1 extension — absent for batch runs.
struct LatencyStats {
  uint64_t ops = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double qps = 0.0;
};

/// Computes LatencyStats from raw per-operation seconds and the total
/// wall time of the measured phase. Percentiles use the nearest-rank
/// method (ceil(p*N)-th smallest). Degenerate windows are well-defined:
/// empty input yields a zeroed struct, a single sample is every
/// percentile, and a non-positive wall time leaves qps at 0.
LatencyStats SummarizeLatency(std::vector<double> op_seconds,
                              double wall_seconds);

/// Persistence axis of a run (the `snapshot_io` scenario): the size of
/// the container on disk plus how long a cold load and the first query
/// after it took. Additive schema-v3 extension — absent elsewhere.
/// `file_bytes` is deterministic for a fixed corpus and compared
/// exactly by bench_compare.py; the timings are threshold-gated like
/// every other wall time.
struct IoStats {
  uint64_t file_bytes = 0;
  double cold_load_s = 0.0;
  double first_query_s = 0.0;
};

/// One measured run within a scenario — typically one (technique or
/// pipeline, parameter setting, dataset) combination; roughly one row of
/// the scenario's printed table.
///
/// `params` and `values` are ordered key/value lists so the serialized
/// object keys are stable across runs. `values` carries deterministic
/// scalars (analytic probabilities, deltas, counts) that the compare
/// tool checks exactly; anything timing-flavoured belongs in `time`.
struct RunResult {
  std::string scenario;  ///< registry scenario name (stamped by Record)
  std::string name;      ///< run label, unique within (scenario, dataset)
  std::string spec;      ///< technique/pipeline spec string; "" = n/a
  std::string dataset;   ///< e.g. "cora-like"; "" for analytic runs
  uint64_t dataset_records = 0;
  std::vector<std::pair<std::string, std::string>> params;
  RepeatStats time;
  std::vector<pipeline::StepCounts> stages;  ///< a pipeline run's steps
  bool has_metrics = false;
  eval::Metrics metrics;
  bool has_latency = false;
  LatencyStats latency;
  bool has_io = false;
  IoStats io;
  /// Progressive axis (schema v4): the run's recall@budget curve
  /// (eval::RecallAtBudget output). Deterministic for a fixed corpus and
  /// emission order; compared exactly by bench_compare.py and gated by
  /// its --min-auc flag.
  bool has_recall = false;
  eval::RecallCurve recall;
  std::vector<std::pair<std::string, double>> values;

  void AddParam(std::string key, std::string value) {
    params.emplace_back(std::move(key), std::move(value));
  }
  void AddValue(std::string key, double value) {
    values.emplace_back(std::move(key), value);
  }
};

/// Outcome of one scenario invocation within a suite run.
struct ScenarioOutcome {
  std::string name;
  int exit_code = 0;
  double seconds = 0.0;  ///< scenario wall time (not a measurement)
};

/// Everything one `sablock_bench` invocation measured.
struct SuiteResult {
  std::string tool = "sablock_bench";
  int schema_version = kSchemaVersion;
  bool quick = false;
  int repeat = 1;
  std::vector<ScenarioOutcome> scenarios;
  std::vector<RunResult> runs;
  /// Process-wide metrics snapshot taken after all scenarios ran
  /// (suite-level `metrics` key, schema v2; optional — absent when the
  /// producer predates it or stripped it).
  bool has_metrics_snapshot = false;
  obs::MetricsSnapshot metrics_snapshot;
};

/// JSON serialization: the suite JSON that sablock_bench --json writes.
/// Optional sections are omitted, never written empty.
Json ToJson(const RunResult& run);
Json ToJson(const SuiteResult& suite);

}  // namespace sablock::report

#endif  // SABLOCK_REPORT_RUN_RESULT_H_
