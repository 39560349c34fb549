#include "engine/thread_pool.h"

#include <atomic>
#include <vector>

#include "gtest/gtest.h"

namespace sablock::engine {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, PoolIsReusableAfterWait) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { ++count; });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 50);
  }
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&pool, &count] {
    ++count;
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { ++count; });
    }
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count] { ++count; });
    }
    // No Wait(): the destructor must finish everything already submitted.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
  EXPECT_LE(ThreadPool::DefaultThreads(), ThreadPool::kMaxThreads);
}

TEST(ThreadPoolTest, ParallelWritesToDistinctSlotsAreVisibleAfterWait) {
  // The ShardedExecutor contract: each task writes one element of a
  // pre-sized vector, Wait() publishes all of them to the submitter.
  ThreadPool pool(4);
  std::vector<int> slots(64, 0);
  for (size_t i = 0; i < slots.size(); ++i) {
    int* slot = &slots[i];
    pool.Submit([slot, i] { *slot = static_cast<int>(i) + 1; });
  }
  pool.Wait();
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i) + 1);
  }
}

}  // namespace
}  // namespace sablock::engine
