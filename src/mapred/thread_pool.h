// A fixed-size worker thread pool.
//
// The parallel substrate that substitutes for the paper's Hadoop platform
// (DESIGN.md §2) and runs every pooled stage (§8). Tasks are arbitrary
// callables; parallel_for partitions an index range over the workers. The
// pool feeds the global cellscope.mapred.* metrics and, when tracing is on,
// records a pool.queue_wait span per dequeued task.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cellscope {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

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

  /// Runs fn(i) for i in [0, n), partitioned into contiguous blocks across
  /// the workers; blocks until every call finished. The first exception
  /// thrown by any fn(i) is rethrown here.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::size_t thread_count() const { return workers_.size(); }

 private:
  struct QueuedTask {
    std::function<void()> task;
    /// Made ready after the completion counter is bumped, so a metrics
    /// read after future.get() always includes the task.
    std::promise<void> done;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::queue<QueuedTask> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;

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

/// Most threads a pool or a server's worker set may ask for.
inline constexpr std::size_t kMaxThreads = 4096;

/// Worker count for the analytics pools: the CELLSCOPE_THREADS environment
/// variable when set, otherwise default_thread_count(). A value that is
/// not an integer in [1, kMaxThreads] throws InvalidArgument.
/// CELLSCOPE_THREADS=1 forces the serial path — results are bit-identical
/// either way (DESIGN.md §8).
std::size_t configured_thread_count();

}  // namespace cellscope
