// Tests for the unified Budget grammar and the shared atomic BudgetMeter
// countdown — the one budget type every layer (pipeline stage, sharded
// engine, service verbs, CLI flags) accounts against.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/block_sink.h"
#include "core/blocking.h"
#include "core/budget.h"

namespace sablock::core {
namespace {

Budget MustParse(const std::string& text) {
  StatusOr<Budget> parsed = Budget::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  return *parsed;
}

std::string ParseError(const std::string& text) {
  StatusOr<Budget> parsed = Budget::Parse(text);
  EXPECT_FALSE(parsed.ok()) << "'" << text << "' should not parse";
  return parsed.ok() ? "" : parsed.status().message();
}

TEST(BudgetTest, DefaultAndEmptySpecAreUnlimited) {
  EXPECT_TRUE(Budget{}.unlimited());
  EXPECT_TRUE(MustParse("").unlimited());
  EXPECT_TRUE(MustParse("   ").unlimited());
  EXPECT_EQ(Budget{}.ToString(), "");
}

TEST(BudgetTest, ParsesEveryTermInAnyOrder) {
  Budget b = MustParse("seconds=1.5, recall-target=0.9 ,pairs=50000");
  EXPECT_EQ(b.pairs, 50000u);
  EXPECT_DOUBLE_EQ(b.seconds, 1.5);
  EXPECT_DOUBLE_EQ(b.recall_target, 0.9);
  EXPECT_FALSE(b.unlimited());

  EXPECT_EQ(MustParse("pairs=inf").pairs, Budget::kUnlimitedPairs);
  EXPECT_EQ(MustParse("pairs=unlimited").pairs, Budget::kUnlimitedPairs);
  EXPECT_EQ(MustParse("PAIRS=7").pairs, 7u);  // keys are case-insensitive
}

TEST(BudgetTest, ToStringRoundTrips) {
  for (const char* spec :
       {"pairs=123", "seconds=0.250", "recall-target=0.900",
        "pairs=9,seconds=2.000", "pairs=1,seconds=0.500,recall-target=1.000"}) {
    Budget b = MustParse(spec);
    EXPECT_EQ(b.ToString(), spec);
    Budget again = MustParse(b.ToString());
    EXPECT_EQ(again.pairs, b.pairs);
    EXPECT_DOUBLE_EQ(again.seconds, b.seconds);
    EXPECT_DOUBLE_EQ(again.recall_target, b.recall_target);
  }
}

TEST(BudgetTest, DiagnosticsNameTheOffendingTerm) {
  EXPECT_NE(ParseError("pairs=0").find("'pairs': must be >= 1"),
            std::string::npos);
  EXPECT_NE(ParseError("pairs=-3").find("non-negative integer"),
            std::string::npos);
  EXPECT_NE(ParseError("pairs=abc").find("non-negative integer"),
            std::string::npos);
  EXPECT_NE(ParseError("seconds=0").find("'seconds': must be > 0"),
            std::string::npos);
  EXPECT_NE(ParseError("seconds=nope").find("expected a number"),
            std::string::npos);
  EXPECT_NE(ParseError("recall-target=1.5").find("must be in (0, 1]"),
            std::string::npos);
  EXPECT_NE(ParseError("recall-target=0").find("must be in (0, 1]"),
            std::string::npos);
  EXPECT_NE(ParseError("budget=5").find("unknown term 'budget'"),
            std::string::npos);
  EXPECT_NE(ParseError("pairs").find("expected key=value"),
            std::string::npos);
  EXPECT_NE(ParseError("pairs=1,,seconds=1").find("empty term"),
            std::string::npos);
}

TEST(BudgetTest, SecondsInfOrUnlimitedMeansNoTimeLimit) {
  // As for pairs=: the documented spelling of "no limit", not a deadline
  // that overflows into the past.
  EXPECT_TRUE(MustParse("seconds=inf").unlimited());
  EXPECT_TRUE(MustParse("seconds=unlimited").unlimited());
  EXPECT_EQ(MustParse("seconds=inf,pairs=5").ToString(), "pairs=5");
  BudgetMeter meter(MustParse("seconds=inf"));
  EXPECT_TRUE(meter.Spend(1));
  EXPECT_FALSE(meter.Exhausted());
}

TEST(BudgetTest, NanIsRejectedForBothDoubleTerms) {
  for (const char* spec : {"seconds=nan", "recall-target=nan",
                           "seconds=-nan", "recall-target=NAN"}) {
    const std::string term(spec, std::string(spec).find('='));
    std::string message = ParseError(spec);
    EXPECT_NE(message.find("'" + term + "'"), std::string::npos) << message;
    EXPECT_NE(message.find("expected a number"), std::string::npos)
        << message;
  }
}

TEST(BudgetMeterTest, DeadlinePastTheClockRangeIsNoDeadline) {
  // 1e12 s and 9.3e9 s both overflow steady_clock's int64 nanoseconds;
  // they must mean "never", not a deadline already in the past.
  for (const char* spec : {"seconds=1e12", "seconds=9.3e9", "seconds=1e300"}) {
    BudgetMeter meter(MustParse(spec));
    EXPECT_TRUE(meter.Spend(1)) << spec;
    EXPECT_TRUE(meter.Spend(1)) << spec;
    EXPECT_FALSE(meter.Exhausted()) << spec;
    EXPECT_STREQ(meter.ExhaustedReason(), "") << spec;
  }
}

TEST(BudgetMeterTest, CrossingSpendIsAcceptedThenExhausted) {
  BudgetMeter meter(MustParse("pairs=10"));
  EXPECT_FALSE(meter.Exhausted());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(meter.Spend(1)) << "spend " << i;
  }
  // The 10th spend crossed the limit; the budget is now exhausted and
  // further spends are refused.
  EXPECT_TRUE(meter.Exhausted());
  EXPECT_FALSE(meter.Spend(1));
  EXPECT_EQ(meter.Spent(), 10u);
  EXPECT_STREQ(meter.ExhaustedReason(), "pairs");
}

TEST(BudgetMeterTest, OversizedSpendIsAcceptedOnce) {
  // BudgetedSink semantics: the block that crosses the budget is still
  // forwarded, however large.
  BudgetMeter meter(MustParse("pairs=5"));
  EXPECT_TRUE(meter.Spend(100));
  EXPECT_TRUE(meter.Exhausted());
  EXPECT_FALSE(meter.Spend(1));
  EXPECT_EQ(meter.Spent(), 100u);
}

TEST(BudgetMeterTest, UnlimitedNeverExhaustsNorOverflows) {
  BudgetMeter meter(Budget{});
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(meter.Spend(1u << 20));
  EXPECT_FALSE(meter.Exhausted());
  EXPECT_STREQ(meter.ExhaustedReason(), "");
}

TEST(BudgetMeterTest, SecondsDeadlineTrips) {
  BudgetMeter meter(MustParse("seconds=0.02"));
  EXPECT_FALSE(meter.Exhausted());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(meter.Exhausted());
  EXPECT_FALSE(meter.Spend(1));
  EXPECT_STREQ(meter.ExhaustedReason(), "seconds");
}

TEST(BudgetMeterTest, RecallTargetTripsAtTheConfiguredFraction) {
  BudgetMeter meter(MustParse("recall-target=0.5"));
  meter.ConfigureRecall(/*total_true_matches=*/10);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(meter.Spend(1));
    meter.NoteMatch();
  }
  EXPECT_FALSE(meter.Exhausted());  // 4/10 < 0.5
  EXPECT_TRUE(meter.Spend(1));
  meter.NoteMatch();  // 5/10 == 0.5
  EXPECT_TRUE(meter.Exhausted());
  EXPECT_EQ(meter.Matches(), 5u);
  EXPECT_STREQ(meter.ExhaustedReason(), "recall");
}

TEST(BudgetMeterTest, UnconfiguredRecallNeverTrips) {
  BudgetMeter meter(MustParse("recall-target=0.1"));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(meter.Spend(1));
    meter.NoteMatch();  // no ConfigureRecall: no ground truth, no trip
  }
  EXPECT_FALSE(meter.Exhausted());
}

// The concurrency contract of a shared meter: many threads spend against
// it with no external lock, and the accepted total overshoots by at most
// one crossing spend per thread.
TEST(BudgetMeterTest, SharedMeterAcrossThreadsBoundsOvershoot) {
  constexpr int kThreads = 8;
  constexpr uint64_t kBudget = 1000;
  auto meter = std::make_shared<BudgetMeter>(MustParse("pairs=1000"));
  std::vector<uint64_t> accepted(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (meter->Spend(1)) ++accepted[t];
    });
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t total = 0;
  for (uint64_t a : accepted) total += a;
  EXPECT_GE(total, kBudget);
  EXPECT_LE(total, kBudget + kThreads);
  EXPECT_TRUE(meter->Exhausted());
  EXPECT_STREQ(meter->ExhaustedReason(), "pairs");
}

// ConfigureRecall may arm the recall limit while other threads already
// spend and note matches (a progressive stage arms it at flush time on a
// meter created at its first block). The TSan leg runs this test: the
// ground-truth count is read by NoteMatch and by the exhausted-reason
// logic, so its write must be atomic too.
TEST(BudgetMeterTest, ConfigureRecallRacesSafelyWithSpenders) {
  constexpr int kThreads = 4;
  auto meter = std::make_shared<BudgetMeter>(
      MustParse("pairs=100000,recall-target=0.5"));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (meter->Spend(1)) meter->NoteMatch();
    });
  }
  meter->ConfigureRecall(/*total_true_matches=*/1000);
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(meter->Exhausted());
  // Either limit may trip first, depending on when recall was armed.
  const std::string reason = meter->ExhaustedReason();
  EXPECT_TRUE(reason == "recall" || reason == "pairs") << reason;
}

TEST(BudgetedSinkTest, SharesOneMeterAcrossSinks) {
  auto meter = std::make_shared<BudgetMeter>(MustParse("pairs=6"));
  BlockCollection out_a;
  BlockCollection out_b;
  BudgetedSink a(out_a, meter);
  BudgetedSink b(out_b, meter);
  a.Consume(Block{0, 1, 2});  // 3 comparisons
  b.Consume(Block{3, 4, 5});  // 3 more: crossing spend, still forwarded
  EXPECT_TRUE(a.Done());
  EXPECT_TRUE(b.Done());
  b.Consume(Block{6, 7});  // refused
  EXPECT_EQ(out_a.NumBlocks(), 1u);
  EXPECT_EQ(out_b.NumBlocks(), 1u);
  EXPECT_EQ(b.dropped_blocks(), 1u);
  EXPECT_EQ(meter->Spent(), 6u);
}

}  // namespace
}  // namespace sablock::core
