// Golden test for the benchmark suite's JSON reporting: drives the real
// sablock_bench entry point (BenchMain) over the table3 scenario in
// --quick mode and checks that the file it writes is exactly the
// serialization of the SuiteResult it hands back, with stable keys and
// every baseline family — the contract tools/bench_compare.py and the CI
// bench-smoke job rely on.

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "report/json.h"
#include "report/run_result.h"
#include "scenarios.h"

namespace sablock::report {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Asserts that `object`'s keys appear in canonical order: every key must
/// be known, and the known keys that are present must appear in the
/// canonical sequence (optional keys may be omitted).
void ExpectKeyOrder(const Json& object,
                    const std::vector<std::string>& canonical,
                    const std::string& what) {
  ASSERT_EQ(object.type(), Json::Type::kObject) << what;
  size_t cursor = 0;
  for (const auto& [key, value] : object.members()) {
    size_t found = canonical.size();
    for (size_t i = cursor; i < canonical.size(); ++i) {
      if (canonical[i] == key) {
        found = i;
        break;
      }
    }
    ASSERT_NE(found, canonical.size())
        << what << ": unexpected or out-of-order key '" << key << "'";
    cursor = found + 1;
  }
}

struct BenchRun {
  std::string text;   ///< the --json file, byte for byte
  SuiteResult suite;  ///< what BenchMain handed back
};

class ReportGoldenTest : public ::testing::Test {
 protected:
  /// Runs the table3 scenario once per test binary (it is the expensive
  /// part) and caches the file text and the suite.
  static const BenchRun& Run() {
    static const BenchRun* run = [] {
      std::string path = ::testing::TempDir() + "/sablock_bench_table3.json";
      std::string json_flag = "--json=" + path;
      // Tiny sizes keep the golden test snappy; the scenario still
      // sweeps every baseline family grid.
      const char* argv[] = {"sablock_bench",   "--quick",
                            "--filter=table3", "--cora=150",
                            "--voter=400",     json_flag.c_str()};
      auto* out = new BenchRun;
      int rc = sablock::bench::BenchMain(static_cast<int>(std::size(argv)),
                                         const_cast<char**>(argv),
                                         &out->suite);
      EXPECT_EQ(rc, 0);
      out->text = ReadFileOrDie(path);
      return out;
    }();
    return *run;
  }
};

TEST_F(ReportGoldenTest, FileIsTheSuiteItHandsBack) {
  const SuiteResult& suite = Run().suite;
  EXPECT_EQ(Run().text, ToJson(suite).Dump(2) + "\n");
  EXPECT_EQ(suite.tool, "sablock_bench");
  EXPECT_EQ(suite.schema_version, kSchemaVersion);
  EXPECT_TRUE(suite.quick);
  ASSERT_EQ(suite.scenarios.size(), 1u);
  EXPECT_EQ(suite.scenarios[0].name, "table3_fig11_baselines");
  EXPECT_EQ(suite.scenarios[0].exit_code, 0);
}

TEST_F(ReportGoldenTest, KeysAreStable) {
  const Json suite = ToJson(Run().suite);

  ExpectKeyOrder(suite,
                 {"tool", "schema_version", "quick", "repeat", "scenarios",
                  "runs", "metrics"},
                 "suite");

  // Schema v2: the suite-level metrics snapshot is present and carries
  // at least one family (the bench run itself touches instrumented
  // seams), each with stable keys.
  const Json* snapshot = suite.Find("metrics");
  ASSERT_NE(snapshot, nullptr);
  const Json* families = snapshot->Find("families");
  ASSERT_NE(families, nullptr);
  ASSERT_GT(families->size(), 0u);
  for (const Json& family : families->items()) {
    ExpectKeyOrder(family, {"name", "type", "help", "label_key", "samples"},
                   "metrics family");
    const Json* samples = family.Find("samples");
    ASSERT_NE(samples, nullptr);
    for (const Json& sample : samples->items()) {
      ExpectKeyOrder(sample,
                     {"label", "value", "count", "sum", "bounds", "buckets"},
                     "metrics sample");
    }
  }

  const Json* runs = suite.Find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_GT(runs->size(), 0u);
  const std::vector<std::string> run_keys = {
      "scenario", "name",   "spec",   "dataset", "dataset_records",
      "params",   "time",   "stages", "metrics", "values"};
  const std::vector<std::string> metric_keys = {
      "pc", "pq", "rr", "fm", "pq_star", "fm_star", "distinct_pairs",
      "true_pairs", "total_comparisons", "ground_truth_pairs", "all_pairs",
      "num_blocks", "max_block_size"};
  for (const Json& run : runs->items()) {
    ExpectKeyOrder(run, run_keys, "run");
    const Json* metrics = run.Find("metrics");
    ASSERT_NE(metrics, nullptr);
    ExpectKeyOrder(*metrics, metric_keys, "metrics");
    const Json* time = run.Find("time");
    ASSERT_NE(time, nullptr);
    ExpectKeyOrder(*time, {"repeats", "min_s", "mean_s", "p50_s"}, "time");
  }
}

TEST_F(ReportGoldenTest, CoversEveryBaselineFamilyOnBothDatasets) {
  const std::set<std::string> expected = {
      "TBlo", "SorA", "SorII", "ASor", "QGr",  "CaTh",   "CaNN",
      "StMT", "StMNN", "SuA",  "SuAS", "RSuA", "LSH",    "SA-LSH"};
  for (const char* dataset : {"cora-like", "voter-like"}) {
    std::set<std::string> seen;
    for (const RunResult& run : Run().suite.runs) {
      EXPECT_EQ(run.scenario, "table3_fig11_baselines");
      if (run.dataset == dataset) {
        EXPECT_TRUE(seen.insert(run.name).second)
            << "duplicate run name " << run.name << " on " << dataset;
        EXPECT_TRUE(run.has_metrics) << run.name;
        EXPECT_GT(run.time.repeats, 0) << run.name;
      }
    }
    EXPECT_EQ(seen, expected) << dataset;
  }
}

}  // namespace
}  // namespace sablock::report
