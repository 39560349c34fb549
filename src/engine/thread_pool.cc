#include "engine/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/timer.h"

namespace sablock::engine {

ThreadPool::ThreadPool(int num_threads) {
  SABLOCK_CHECK_MSG(num_threads <= kMaxThreads,
                    "thread pool size must be <= ThreadPool::kMaxThreads");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  queue_depth_ = registry.GetGauge(
      "threadpool_queue_depth", "tasks submitted but not yet started");
  tasks_total_ =
      registry.GetCounter("threadpool_tasks", "tasks completed by workers");
  task_seconds_ = registry.GetHistogram(
      "threadpool_task_seconds", "task execution durations",
      obs::Histogram::LatencyBuckets());

  int n = std::max(num_threads, 1);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  queue_depth_->Add(1);
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

int ThreadPool::DefaultThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(
      std::clamp(n, 1u, static_cast<unsigned>(kMaxThreads)));
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping so ~ThreadPool completes
      // everything already submitted.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_->Sub(1);
    WallTimer timer;
    task();
    task_seconds_->Observe(timer.Seconds());
    tasks_total_->Add(1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace sablock::engine
