#ifndef SABLOCK_OBS_EXPORT_H_
#define SABLOCK_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "report/json.h"

namespace sablock::obs {

/// The two export sinks of a MetricsSnapshot. Both only write: no C++
/// code reads a snapshot back.
///
/// JSON — embedded as the suite-level `metrics` object of the
/// sablock_bench SuiteResult (schema v2) and diffed by
/// tools/bench_compare.py:
///
///   {"families": [
///     {"name": "featurestore_hits", "type": "counter", "help": "...",
///      "label_key": "column",
///      "samples": [{"label": "token", "value": 3}]},
///     {"name": "service_request_seconds", "type": "histogram", ...,
///      "samples": [{"label": "query", "count": 9, "sum": 0.012,
///                   "bounds": [...], "buckets": [...]}]}]}
///
/// Prometheus text — the exposition format served by the candidate
/// server's kMetrics verb, `sablock_serve --stats` and the bench
/// runner's --prom=FILE dump.
report::Json SnapshotToJson(const MetricsSnapshot& snapshot);

/// Prometheus text exposition format (# HELP / # TYPE lines, cumulative
/// `le` histogram buckets with a +Inf edge, _sum and _count series).
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

}  // namespace sablock::obs

#endif  // SABLOCK_OBS_EXPORT_H_
