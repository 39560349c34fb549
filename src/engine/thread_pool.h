#ifndef SABLOCK_ENGINE_THREAD_POOL_H_
#define SABLOCK_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace sablock::engine {

/// Fixed-size worker pool executing submitted tasks FIFO. The building
/// block of the sharded execution engine: ShardedExecutor submits one task
/// per shard.
///
/// Tasks must not throw (the library is exception-free; invariant
/// violations abort via SABLOCK_CHECK). Submitting from inside a running
/// task is allowed — workers never hold the queue lock while executing.
class ThreadPool {
 public:
  /// The most workers a pool may hold. Every thread count a user gives
  /// (the CLI's --threads, an ExecutionSpec, sablock_serve's --threads) is
  /// checked against it where it is parsed.
  static constexpr int kMaxThreads = 256;

  /// Spawns `num_threads` workers (clamped to >= 1). Requires
  /// num_threads <= kMaxThreads.
  explicit ThreadPool(int num_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished (queue drained and no
  /// task running). The pool is reusable afterwards.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Hardware concurrency clamped to [1, kMaxThreads]
  /// (hardware_concurrency may report 0 on exotic platforms).
  static int DefaultThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: task or stop
  std::condition_variable idle_cv_;  // signals Wait(): everything finished
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently running tasks
  bool stop_ = false;
  std::vector<std::thread> workers_;

  // Telemetry (process-global families, shared by every pool): queue
  // depth shows starved or backed-up pools, task latency where worker
  // time goes. Resolved once here, updated lock-free in the hot path.
  obs::Gauge* queue_depth_;       // tasks submitted but not yet started
  obs::Counter* tasks_total_;     // tasks completed
  obs::Histogram* task_seconds_;  // task execution durations
};

}  // namespace sablock::engine

#endif  // SABLOCK_ENGINE_THREAD_POOL_H_
