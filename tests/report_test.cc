// Tests for src/report/: the JSON tree and its writer, and the
// RunResult/SuiteResult serialization that sablock_bench emits. The
// library writes JSON and never reads it (tools/bench_compare.py does),
// so these tests pin the writer's exact bytes.

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "report/json.h"
#include "report/run_result.h"

namespace sablock::report {
namespace {

// ----------------------------------------------------------------- JSON

TEST(JsonTest, ScalarDump) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(0).Dump(), "0");
  EXPECT_EQ(Json(static_cast<int64_t>(-42)).Dump(), "-42");
  EXPECT_EQ(Json(std::numeric_limits<int64_t>::min()).Dump(),
            "-9223372036854775808");
  EXPECT_EQ(Json(std::numeric_limits<int64_t>::max()).Dump(),
            "9223372036854775807");
  EXPECT_EQ(Json(std::numeric_limits<uint64_t>::max()).Dump(),
            "18446744073709551615");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, DoublesUseTheShortestExactFormAndAMarker) {
  // Integral doubles keep a ".0" marker so they stay distinct from
  // integer counters; a form with a '.' or an exponent needs none.
  EXPECT_EQ(Json(1.0).Dump(), "1.0");
  EXPECT_EQ(Json(-0.0).Dump(), "-0.0");
  EXPECT_EQ(Json(100.0).Dump(), "100.0");
  EXPECT_EQ(Json(0.5).Dump(), "0.5");
  EXPECT_EQ(Json(1e21).Dump(), "1e+21");
  EXPECT_EQ(Json(0.1 + 0.2).Dump(), "0.30000000000000004");
  EXPECT_EQ(Json(std::numeric_limits<double>::denorm_min()).Dump(),
            "5e-324");
  // The shortest form reads back to the exact bits.
  for (double x : {0.1 + 0.2, 1.0 / 3.0, -2.5e-300, 1e21,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max()}) {
    const std::string text = Json(x).Dump();
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), x) << text;
  }
}

TEST(JsonTest, NonFiniteDoublesSerializeAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).Dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).Dump(), "null");
}

TEST(JsonTest, StringEscaping) {
  // Quote, backslash and control characters are escaped; every other
  // byte, UTF-8 and '/' included, passes through unchanged.
  Json j(std::string("a\"b\\c\nd\te\x01" "f\b\f\r\x1f\xc3\xa9/"));
  EXPECT_EQ(j.Dump(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001f\\b\\f\\r\\u001f\xc3\xa9/\"");
  EXPECT_EQ(Json::Object().Set("k\"\n", 1).Dump(), "{\"k\\\"\\n\":1}");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json j = Json::Object();
  j.Set("zebra", 1);
  j.Set("apple", 2);
  j.Set("mango", 3);
  EXPECT_EQ(j.Dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  j.Set("apple", 9);  // overwrite keeps the slot
  EXPECT_EQ(j.Dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(JsonTest, NestedDumpAtIndentZeroAndTwo) {
  Json j = Json::Object();
  j.Set("list", Json::Array().Append(1).Append("two").Append(Json()));
  j.Set("nested", Json::Object().Set("pi", 3.14159).Set("ok", true));
  j.Set("empty_array", Json::Array());
  j.Set("empty_object", Json::Object());

  EXPECT_EQ(j.Dump(),
            R"({"list":[1,"two",null],"nested":{"pi":3.14159,"ok":true},)"
            R"("empty_array":[],"empty_object":{}})");
  EXPECT_EQ(j.Dump(2), R"({
  "list": [
    1,
    "two",
    null
  ],
  "nested": {
    "pi": 3.14159,
    "ok": true
  },
  "empty_array": [],
  "empty_object": {}
})");
}

// ---------------------------------------------------------- RepeatStats

TEST(RepeatStatsTest, Summarize) {
  RepeatStats s = SummarizeSeconds({3.0, 1.0, 2.0});
  EXPECT_EQ(s.repeats, 3);
  EXPECT_DOUBLE_EQ(s.min_s, 1.0);
  EXPECT_DOUBLE_EQ(s.mean_s, 2.0);
  EXPECT_DOUBLE_EQ(s.p50_s, 2.0);

  s = SummarizeSeconds({4.0, 1.0});
  EXPECT_DOUBLE_EQ(s.p50_s, 1.0);  // lower median

  s = SummarizeSeconds({});
  EXPECT_EQ(s.repeats, 0);
}

// ------------------------------------------------------ RunResult bytes

/// A run with every optional section present.
RunResult MakeRun() {
  RunResult run;
  run.scenario = "table3_fig11_baselines";
  run.name = "SA-LSH \"quoted\\name\"";  // exercises escaping end-to-end
  run.spec = "sa-lsh:k=4,l=63,q=4,seed=7,w=5,mode=or,domain=bib";
  run.dataset = "cora-like";
  run.dataset_records = 1879;
  run.AddParam("best_setting", "sa-lsh(w=5)");
  run.AddParam("settings", "1");
  run.time = {3, 0.21, 0.225, 0.22};
  run.stages.push_back({"token-blocking", 120, 4567, 99, 0.031});
  run.stages.push_back({"meta", 80, 1234, 50, 0.013});
  run.has_metrics = true;
  run.metrics.pc = 0.97;
  run.metrics.pq = 0.42;
  run.metrics.rr = 0.9999;
  run.metrics.fm = 0.59;
  run.metrics.pq_star = 0.5;
  run.metrics.fm_star = 0.66;
  run.metrics.distinct_pairs = 123456;
  run.metrics.true_pairs = 9876;
  run.metrics.total_comparisons = 234567;
  run.metrics.ground_truth_pairs = 10000;
  run.metrics.all_pairs = 1764381;
  run.metrics.num_blocks = 321;
  run.metrics.max_block_size = 77;
  run.has_latency = true;
  run.latency = {2500, 14.5, 230.75, 61234.5};
  run.has_io = true;
  run.io = {4096, 0.015, 0.002};
  run.has_recall = true;
  run.recall = {500, 0.75, {{0.5, 0.625}, {1.0, 0.875}}};
  run.AddValue("speed_of_light", 1.0);
  return run;
}

TEST(RunResultTest, ToJsonPinsEveryField) {
  EXPECT_EQ(ToJson(MakeRun()).Dump(2), R"json({
  "scenario": "table3_fig11_baselines",
  "name": "SA-LSH \"quoted\\name\"",
  "spec": "sa-lsh:k=4,l=63,q=4,seed=7,w=5,mode=or,domain=bib",
  "dataset": "cora-like",
  "dataset_records": 1879,
  "params": {
    "best_setting": "sa-lsh(w=5)",
    "settings": "1"
  },
  "time": {
    "repeats": 3,
    "min_s": 0.21,
    "mean_s": 0.225,
    "p50_s": 0.22
  },
  "stages": [
    {
      "name": "token-blocking",
      "blocks": 120,
      "comparisons": 4567,
      "max_block_size": 99,
      "seconds": 0.031
    },
    {
      "name": "meta",
      "blocks": 80,
      "comparisons": 1234,
      "max_block_size": 50,
      "seconds": 0.013
    }
  ],
  "metrics": {
    "pc": 0.97,
    "pq": 0.42,
    "rr": 0.9999,
    "fm": 0.59,
    "pq_star": 0.5,
    "fm_star": 0.66,
    "distinct_pairs": 123456,
    "true_pairs": 9876,
    "total_comparisons": 234567,
    "ground_truth_pairs": 10000,
    "all_pairs": 1764381,
    "num_blocks": 321,
    "max_block_size": 77
  },
  "latency": {
    "ops": 2500,
    "p50_us": 14.5,
    "p99_us": 230.75,
    "qps": 61234.5
  },
  "io": {
    "file_bytes": 4096,
    "cold_load_s": 0.015,
    "first_query_s": 0.002
  },
  "recall": {
    "budget_pairs": 500,
    "auc": 0.75,
    "points": [
      {
        "fraction": 0.5,
        "recall": 0.625
      },
      {
        "fraction": 1.0,
        "recall": 0.875
      }
    ]
  },
  "values": {
    "speed_of_light": 1.0
  }
})json");
}

TEST(RunResultTest, OptionalSectionsOmitted) {
  RunResult run;
  run.scenario = "fig5_collision";
  run.name = "AND,w=1";
  Json j = ToJson(run);
  EXPECT_EQ(j.Find("spec"), nullptr);
  EXPECT_EQ(j.Find("dataset"), nullptr);
  EXPECT_EQ(j.Find("dataset_records"), nullptr);
  EXPECT_EQ(j.Find("params"), nullptr);
  EXPECT_EQ(j.Find("time"), nullptr);
  EXPECT_EQ(j.Find("stages"), nullptr);
  EXPECT_EQ(j.Find("metrics"), nullptr);
  EXPECT_EQ(j.Find("latency"), nullptr);
  EXPECT_EQ(j.Find("io"), nullptr);
  EXPECT_EQ(j.Find("recall"), nullptr);
  EXPECT_EQ(j.Find("values"), nullptr);
  EXPECT_EQ(j.Dump(), R"({"scenario":"fig5_collision","name":"AND,w=1"})");
}

TEST(LatencyStatsTest, SummarizeNearestRank) {
  // 100 ops at 1..100 microseconds over a 0.01s wall: nearest rank is
  // the ceil(p*N)-th smallest value — p50 -> 50th (50us), p99 -> 99th
  // (99us).
  std::vector<double> ops;
  for (int i = 100; i >= 1; --i) ops.push_back(i * 1e-6);
  LatencyStats s = SummarizeLatency(std::move(ops), 0.01);
  EXPECT_EQ(s.ops, 100u);
  EXPECT_DOUBLE_EQ(s.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 99.0);
  EXPECT_DOUBLE_EQ(s.qps, 10000.0);

  LatencyStats empty = SummarizeLatency({}, 1.0);
  EXPECT_EQ(empty.ops, 0u);
  EXPECT_DOUBLE_EQ(empty.qps, 0.0);

  LatencyStats zero_wall = SummarizeLatency({1e-6}, 0.0);
  EXPECT_EQ(zero_wall.ops, 1u);
  EXPECT_DOUBLE_EQ(zero_wall.qps, 0.0);  // no wall time, no rate
}

TEST(LatencyStatsTest, DegenerateWindowsAreWellDefined) {
  // Empty window: every field is zero, nothing indexes into the samples.
  LatencyStats empty = SummarizeLatency({}, 0.0);
  EXPECT_EQ(empty.ops, 0u);
  EXPECT_DOUBLE_EQ(empty.p50_us, 0.0);
  EXPECT_DOUBLE_EQ(empty.p99_us, 0.0);
  EXPECT_DOUBLE_EQ(empty.qps, 0.0);

  // Single sample: it IS every percentile.
  LatencyStats one = SummarizeLatency({7e-6}, 7e-6);
  EXPECT_EQ(one.ops, 1u);
  EXPECT_DOUBLE_EQ(one.p50_us, 7.0);
  EXPECT_DOUBLE_EQ(one.p99_us, 7.0);

  // Two samples: p50 is the 1st smallest (ceil(0.5*2) = 1), p99 the 2nd.
  LatencyStats two = SummarizeLatency({3e-6, 1e-6}, 4e-6);
  EXPECT_EQ(two.ops, 2u);
  EXPECT_DOUBLE_EQ(two.p50_us, 1.0);
  EXPECT_DOUBLE_EQ(two.p99_us, 3.0);
}

// ---------------------------------------------------- SuiteResult bytes

TEST(SuiteResultTest, ToJsonPinsHeaderScenariosAndRuns) {
  SuiteResult suite;
  suite.quick = true;
  suite.repeat = 3;
  suite.scenarios.push_back({"table3_fig11_baselines", 0, 12.5});
  suite.scenarios.push_back({"engine_scaling", 1, 3.25});
  suite.runs.push_back(MakeRun());

  // Without a snapshot the suite ends at its runs.
  EXPECT_EQ(ToJson(suite).Dump(),
            R"({"tool":"sablock_bench","schema_version":4,"quick":true,)"
            R"("repeat":3,"scenarios":[{"name":"table3_fig11_baselines",)"
            R"("exit_code":0,"seconds":12.5},{"name":"engine_scaling",)"
            R"("exit_code":1,"seconds":3.25}],"runs":[)" +
                ToJson(MakeRun()).Dump() + "]}");
}

TEST(SuiteResultTest, MetricsSnapshotIsTheLastKey) {
  // Schema v2: the optional suite-level metrics object is the snapshot's
  // own JSON, written after the runs.
  SuiteResult suite;
  suite.runs.push_back(MakeRun());
  obs::MetricsRegistry registry;
  registry.GetCounter("obs_rt_hits", "hits", "column", "token")->Add(5);
  registry.GetHistogram("obs_rt_seconds", "latency", {0.5, 2.0})
      ->Observe(1.0);
  suite.metrics_snapshot = registry.Snapshot();
  suite.has_metrics_snapshot = true;

  const Json j = ToJson(suite);
  ASSERT_EQ(j.members().back().first, "metrics");
  EXPECT_EQ(j.members().back().second.Dump(),
            R"({"families":[{"name":"obs_rt_hits","type":"counter",)"
            R"("help":"hits","label_key":"column","samples":[{"label":)"
            R"("token","value":5}]},{"name":"obs_rt_seconds","type":)"
            R"("histogram","help":"latency","samples":[{"count":1,)"
            R"("sum":1.0,"bounds":[0.5,2.0],"buckets":[0,1,0]}]}]})");
}

}  // namespace
}  // namespace sablock::report
