// Tests for the evaluation harness (technique runner, best-by-FM sweep,
// table printer).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/standard_blocking.h"
#include "baselines/sorted_neighbourhood.h"
#include "eval/harness.h"

namespace sablock::eval {
namespace {

using baselines::SortedNeighbourhoodArray;
using baselines::StandardBlocking;
using data::Dataset;
using data::Schema;

Dataset SmallDataset() {
  Dataset d{Schema({"name"})};
  d.Add({{"anna"}}, 0);
  d.Add({{"anna"}}, 0);
  d.Add({{"bert"}}, 1);
  d.Add({{"carla"}}, 2);
  return d;
}

TEST(RunTechniqueTest, ReportsNameTimeAndMetrics) {
  Dataset d = SmallDataset();
  StandardBlocking tblo({"name"});
  TechniqueResult r = RunTechnique(tblo, d);
  EXPECT_EQ(r.name, "TBlo");
  EXPECT_GE(r.seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.metrics.pc, 1.0);
  EXPECT_DOUBLE_EQ(r.metrics.pq, 1.0);
}

TEST(RunAllTest, OneResultPerSetting) {
  Dataset d = SmallDataset();
  std::vector<std::unique_ptr<core::BlockingTechnique>> settings;
  settings.push_back(
      std::make_unique<StandardBlocking>(std::vector<std::string>{"name"}));
  for (int w : {2, 3}) {
    settings.push_back(std::make_unique<SortedNeighbourhoodArray>(
        std::vector<std::string>{"name"}, w));
  }
  std::vector<TechniqueResult> results = RunAll(settings, d);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].name, "TBlo");
  EXPECT_EQ(results[1].name, "SorA(w=2)");
}

TEST(BestByFmTest, PicksHighestFm) {
  std::vector<TechniqueResult> results(3);
  results[0].metrics.fm = 0.4;
  results[1].metrics.fm = 0.9;
  results[2].metrics.fm = 0.7;
  EXPECT_EQ(BestByFm(results), 1u);
  EXPECT_EQ(BestByFm({}), 0u);
}

TEST(TablePrinterTest, PrintsAlignedRowsAndPadsShortOnes) {
  TablePrinter table({"name", "value"});
  table.AddRow({"short", "1"});
  table.AddRow({"a much longer cell", "2"});
  table.AddRow({"padded short row"});
  testing::internal::CaptureStdout();
  table.Print();
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("a much longer cell"), std::string::npos);
  EXPECT_NE(out.find("padded short row"), std::string::npos);
  // Header, rule, three rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(TablePrinterDeathTest, RejectsOverlongRows) {
  TablePrinter table({"name", "value"});
  EXPECT_DEATH(table.AddRow({"a", "b", "dropped silently before"}),
               "more cells than headers");
}

}  // namespace
}  // namespace sablock::eval
