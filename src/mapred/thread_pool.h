// A fork-join thread pool.
//
// The parallel substrate that substitutes for the paper's Hadoop platform
// (DESIGN.md §2) and runs every pooled stage (§8). parallel_for is the one
// dispatch path: the calling thread publishes a job, then claims contiguous
// blocks of the index range alongside the pool's workers until every block
// has run. A dispatch costs well under a microsecond while workers spin, so
// even the NN-chain linkage can split each scan across the pool (§8). The
// pool feeds the global cellscope.mapred.tasks_* counters, one per block.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cellscope {

namespace obs {
class Counter;
}  // namespace obs

/// Fixed-size fork-join pool: the caller of parallel_for plus n − 1 workers.
class ThreadPool {
 public:
  /// Spawns `n_threads` − 1 workers; parallel_for runs on its caller plus
  /// those workers. Throws cellscope::Error when n_threads is 0.
  explicit ThreadPool(std::size_t n_threads);

  /// Wakes and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for i in [0, n), partitioned into contiguous blocks that
  /// the caller and the workers claim; blocks until every block finished.
  /// The first exception thrown by any fn(i) is rethrown here, after every
  /// block has finished. Concurrent callers are serialized (one job runs
  /// at a time); a call from inside a job on this pool runs inline.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Threads that run a job: the caller plus the workers.
  std::size_t thread_count() const { return workers_.size() + 1; }

 private:
  void worker_loop();
  /// Claims and runs blocks of the current job until none is left.
  void run_blocks();
  /// Waits until generation_ moves past `seen`; returns the new value.
  std::uint32_t await_dispatch(std::uint32_t seen);
  /// Waits until all `blocks` blocks of the current job have finished.
  void await_done(std::uint32_t blocks);

  // The current job. The dispatching thread writes these before it
  // publishes claim_; a participant reads them only while it holds an
  // unfinished block, so they cannot change under it.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t per_block_ = 0;
  std::uint32_t blocks_ = 0;
  std::mutex error_mutex_;
  std::exception_ptr error_;  ///< the job's first failure

  // The three hot words sit on their own cache lines: spinning workers
  // read generation_, every participant claims from claim_ and counts
  // into done_, and the caller spins on done_.
  /// Bumped once per dispatch (and at shutdown); parked workers wait on it.
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  /// Whether this dispatch started within the spin window of the previous
  /// one; participants spin for the next dispatch only then.
  std::atomic<bool> back_to_back_{false};
  std::atomic<bool> stopping_{false};
  /// Workers blocked in generation_.wait: a dispatch notifies only if any.
  std::atomic<std::uint32_t> parked_workers_{0};
  /// generation << 32 | blocks not yet claimed.
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  /// Blocks of the current job that have finished.
  alignas(64) std::atomic<std::uint32_t> done_{0};
  /// The caller blocked in done_.wait: the last block notifies only then.
  std::atomic<bool> caller_parked_{false};

  std::mutex dispatch_mutex_;  ///< one job at a time
  std::chrono::steady_clock::time_point last_dispatch_{};  ///< under dispatch_mutex_
  std::vector<std::thread> workers_;

  // Process-global metrics (registered once, hot-path cached).
  obs::Counter* metric_submitted_;
  obs::Counter* metric_completed_;
};

/// fn(i) for i in [0, n): pool->parallel_for when the pool has more than
/// one thread and n > 1, a plain ascending loop otherwise (no pool, a
/// one-thread pool, or a single index). Every pooled stage goes through
/// here; callers write each index's result to its own slot, so both paths
/// produce identical output (DESIGN.md §8).
void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn);

/// A sensible default thread count for this machine (at least 2 so the
/// pooled paths are genuinely concurrent even on single-core CI).
std::size_t default_thread_count();

/// Most threads a pool or a server's worker set may ask for.
inline constexpr std::size_t kMaxThreads = 4096;

/// Thread count for the analytics pools: the CELLSCOPE_THREADS environment
/// variable when set, otherwise default_thread_count(). A value that is
/// not an integer in [1, kMaxThreads] throws InvalidArgument.
/// CELLSCOPE_THREADS=1 forces the serial path — results are bit-identical
/// either way (DESIGN.md §8).
std::size_t configured_thread_count();

}  // namespace cellscope
