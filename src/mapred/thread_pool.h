// A fixed-size worker thread pool.
//
// The parallel substrate that substitutes for the paper's Hadoop platform
// (DESIGN.md §2) and runs every pooled stage (§8). Tasks are arbitrary
// callables; parallel_for partitions an index range over the workers. The
// pool keeps utilization stats (tasks run, queue wait, per-worker busy
// time) and feeds the global cellscope.mapred.* metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cellscope {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

/// Utilization snapshot of one ThreadPool.
struct ThreadPoolStats {
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  /// Total time tasks spent queued before a worker picked them up.
  double total_queue_wait_ms = 0.0;
  /// Total time workers spent running tasks (sum over workers).
  double total_busy_ms = 0.0;
  /// Busy time per worker, indexed 0..thread_count-1.
  std::vector<double> per_worker_busy_ms;
};

/// Fixed-size thread pool with task futures and a blocking parallel_for.
class ThreadPool {
 public:
  /// Spawns `n_threads` workers; throws cellscope::Error when n_threads
  /// is 0 (a zero-worker pool would hang every submit forever). The task
  /// queue is unbounded.
  explicit ThreadPool(std::size_t n_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves when it completes (exceptions
  /// propagate through the future).
  std::future<void> submit(std::function<void()> task);

  /// Pending tasks not yet picked up by a worker.
  std::size_t queue_depth() const;

  /// Runs fn(i) for i in [0, n), partitioned into contiguous blocks across
  /// the workers; blocks until every call finished. The first exception
  /// thrown by any fn(i) is rethrown here.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t thread_count() const { return workers_.size(); }

  /// Utilization counters accumulated since construction.
  ThreadPoolStats stats() const;

 private:
  struct QueuedTask {
    std::function<void()> task;
    /// Made ready after the task's stats are counted, so stats() read
    /// after future.get() always includes the task.
    std::promise<void> done;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

  // Pool-local stats (relaxed atomics; snapshotted by stats()).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> queue_wait_ns_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_ns_;  // per worker

  // Process-global metrics (registered once, hot-path cached).
  obs::Counter* metric_submitted_;
  obs::Counter* metric_completed_;
  obs::Gauge* metric_queue_depth_;
};

/// fn(i) for i in [0, n): pool->parallel_for when the pool has more than
/// one worker and n > 1, a plain ascending loop otherwise (no pool, a
/// one-worker pool, or a single index). Every pooled stage goes through
/// here; callers write each index's result to its own slot, so both paths
/// produce identical output (DESIGN.md §8).
void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn);

/// A sensible default worker count for this machine (at least 2 so the
/// pooled paths are genuinely concurrent even on single-core CI).
std::size_t default_thread_count();

/// Worker count for the analytics pools: the CELLSCOPE_THREADS environment
/// variable when set, otherwise default_thread_count(). A value that is
/// not an integer in [1, 4096] throws InvalidArgument. CELLSCOPE_THREADS=1 forces the serial path —
/// results are bit-identical either way (DESIGN.md §8).
std::size_t configured_thread_count();

}  // namespace cellscope
