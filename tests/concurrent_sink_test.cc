#include "engine/concurrent_sink.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/block_sink.h"
#include "core/blocking.h"
#include "engine/thread_pool.h"
#include "gtest/gtest.h"

namespace sablock::engine {
namespace {

using core::Block;
using core::BlockCollection;
using core::BudgetedSink;
using core::BudgetMeter;
using core::PairCountingSink;

std::shared_ptr<BudgetMeter> PairsMeter(uint64_t pairs) {
  return std::make_shared<BudgetMeter>(core::Budget{.pairs = pairs});
}

TEST(ConcurrentSinkTest, ForwardsBlocksAndDone) {
  PairCountingSink counting;
  ConcurrentSink sink(counting);
  EXPECT_FALSE(sink.Done());
  sink.Consume({1, 2, 3});
  sink.Consume({4, 5});
  EXPECT_EQ(counting.num_blocks(), 2u);
  EXPECT_EQ(counting.comparisons(), 4u);  // C(3,2) + C(2,2)
  EXPECT_EQ(sink.consumed(), 2u);
}

TEST(ConcurrentSinkTest, CountsAreExactUnderConcurrentProducers) {
  constexpr int kThreads = 8;
  constexpr int kBlocksPerThread = 2000;
  PairCountingSink counting;
  ConcurrentSink sink(counting);
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&sink] {
        for (int i = 0; i < kBlocksPerThread; ++i) {
          sink.Consume({1, 2});  // one comparison each
        }
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(counting.num_blocks(),
            static_cast<uint64_t>(kThreads) * kBlocksPerThread);
  EXPECT_EQ(counting.comparisons(),
            static_cast<uint64_t>(kThreads) * kBlocksPerThread);
  EXPECT_EQ(sink.consumed(),
            static_cast<uint64_t>(kThreads) * kBlocksPerThread);
}

TEST(ConcurrentSinkTest, DonePropagatesFromInnerSink) {
  BlockCollection collection;
  BudgetedSink capped(collection, PairsMeter(1));
  ConcurrentSink sink(capped);
  EXPECT_FALSE(sink.Done());
  sink.Consume({1, 2});
  EXPECT_TRUE(sink.Done());
}

// A BudgetedSink shared by concurrent producers through a ConcurrentSink
// (see concurrent_sink.h): budget accounting stays exact — the forwarded
// comparison total equals the budget (when blocks carry one comparison
// each), the inner sink receives exactly those blocks, and every block
// consumed after the budget ran out is counted as dropped.
TEST(ConcurrentSinkTest, BudgetedSinkIsExactUnderConcurrentProducers) {
  constexpr uint64_t kBudget = 500;
  constexpr int kThreads = 8;
  constexpr int kBlocksPerThread = 1000;  // 8000 offered >> 500 budget
  BlockCollection collection;
  BudgetedSink capped(collection, PairsMeter(kBudget));
  ConcurrentSink sink(capped);
  std::atomic<uint64_t> offered{0};
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&sink, &offered] {
        for (int i = 0; i < kBlocksPerThread; ++i) {
          // A polite producer polls Done() like the techniques do; some
          // blocks still race past the transition and must be dropped
          // and counted, never double-spent.
          if (sink.Done()) return;
          sink.Consume({7, 9});
          offered.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(capped.meter()->Spent(), kBudget);
  EXPECT_EQ(collection.NumBlocks(), kBudget);
  EXPECT_EQ(collection.TotalComparisons(), kBudget);
  // Everything offered either made it into the collection or was dropped
  // after the budget was spent — no block is lost or counted twice.
  EXPECT_EQ(offered.load(), kBudget + capped.dropped_blocks());
}

TEST(OffsetSinkTest, TranslatesShardLocalIds) {
  BlockCollection collection;
  OffsetSink sink(collection, /*offset=*/100);
  sink.Consume({0, 3, 7});
  ASSERT_EQ(collection.NumBlocks(), 1u);
  EXPECT_EQ(collection.blocks()[0], (Block{100, 103, 107}));
}

TEST(OffsetSinkTest, PropagatesDone) {
  BlockCollection collection;
  BudgetedSink capped(collection, PairsMeter(1));
  OffsetSink sink(capped, 10);
  EXPECT_FALSE(sink.Done());
  sink.Consume({0, 1});
  EXPECT_TRUE(sink.Done());
}

}  // namespace
}  // namespace sablock::engine
