#include "mapred/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace cellscope {

namespace {

/// A participant that finishes a job keeps spinning for the next one, for
/// at most this long, only when dispatches arrive back to back: the job it
/// finished started less than this long after the one before (DESIGN.md
/// §8). Otherwise it parks at once, so a pool that is dispatched now and
/// then (a stream drain every few milliseconds) burns no core.
constexpr std::chrono::microseconds kSpinWindow{50};

/// The pool each thread is running a job of (its own pool, on a worker).
thread_local const ThreadPool* t_running_pool = nullptr;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until done() or the spin window has passed; returns done().
template <typename Done>
bool spin_until(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (unsigned spins = 1;; ++spins) {
    if (done()) return true;
    cpu_relax();
    if (spins % 16 == 0 && std::chrono::steady_clock::now() >= deadline)
      return done();
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  CS_CHECK_MSG(n_threads >= 1, "thread pool needs at least one thread");
  auto& registry = obs::MetricsRegistry::instance();
  metric_submitted_ = &registry.counter("cellscope.mapred.tasks_submitted");
  metric_completed_ = &registry.counter("cellscope.mapred.tasks_completed");
  workers_.reserve(n_threads - 1);
  for (std::size_t i = 1; i < n_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(dispatch_mutex_);
    stopping_.store(true, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_seq_cst);
  }
  generation_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (t_running_pool == this) {
    // A job's own fn calling back into its pool: every other participant
    // may be busy with this job, so run the nested range here.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> lock(dispatch_mutex_);
  const auto now = std::chrono::steady_clock::now();
  back_to_back_.store(now - last_dispatch_ < kSpinWindow,
                      std::memory_order_relaxed);
  last_dispatch_ = now;

  const std::size_t max_blocks = std::min(n, thread_count() * 4);
  per_block_ = (n + max_blocks - 1) / max_blocks;
  blocks_ = static_cast<std::uint32_t>((n + per_block_ - 1) / per_block_);
  fn_ = &fn;
  n_ = n;
  done_.store(0, std::memory_order_relaxed);
  const std::uint32_t blocks = blocks_;
  const std::uint32_t generation =
      generation_.load(std::memory_order_relaxed) + 1;
  // The release store publishes the job's fields to whoever claims a block.
  claim_.store(std::uint64_t{generation} << 32 | blocks,
               std::memory_order_release);
  // Seq-cst store, then seq-cst load of the parked count: a worker that
  // parks after this load sees the new generation before it sleeps.
  generation_.store(generation, std::memory_order_seq_cst);
  if (parked_workers_.load(std::memory_order_seq_cst) > 0)
    generation_.notify_all();
  metric_submitted_->add(blocks);

  const ThreadPool* outer = std::exchange(t_running_pool, this);
  run_blocks();
  t_running_pool = outer;
  await_done(blocks);
  metric_completed_->add(blocks);
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::run_blocks() {
  std::uint64_t word = claim_.load(std::memory_order_relaxed);
  for (;;) {
    const auto unclaimed = static_cast<std::uint32_t>(word);
    if (unclaimed == 0) return;
    if (!claim_.compare_exchange_weak(word, word - 1,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed))
      continue;
    // This block is unfinished, so the job it belongs to (the one that
    // stored `word`) cannot end and its fields stay put until done_ moves.
    const std::uint32_t blocks = blocks_;
    const std::size_t begin =
        static_cast<std::size_t>(blocks - unclaimed) * per_block_;
    const std::size_t end = std::min(n_, begin + per_block_);
    try {
      for (std::size_t i = begin; i < end; ++i) (*fn_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
    // After this add the caller may return and start the next job: touch
    // no job field past it. Seq-cst pairs with await_done's park.
    if (done_.fetch_add(1, std::memory_order_seq_cst) + 1 == blocks &&
        caller_parked_.load(std::memory_order_seq_cst))
      done_.notify_one();
    word = claim_.load(std::memory_order_relaxed);
  }
}

std::uint32_t ThreadPool::await_dispatch(std::uint32_t seen) {
  std::uint32_t generation = seen;
  const auto moved = [&] {
    generation = generation_.load(std::memory_order_acquire);
    return generation != seen;
  };
  if (moved()) return generation;
  if (back_to_back_.load(std::memory_order_relaxed) && spin_until(moved))
    return generation;
  parked_workers_.fetch_add(1, std::memory_order_seq_cst);
  while ((generation = generation_.load(std::memory_order_seq_cst)) == seen)
    generation_.wait(seen, std::memory_order_seq_cst);
  parked_workers_.fetch_sub(1, std::memory_order_relaxed);
  return generation;
}

void ThreadPool::await_done(std::uint32_t blocks) {
  const auto finished = [&] {
    return done_.load(std::memory_order_acquire) == blocks;
  };
  if (finished()) return;
  if (back_to_back_.load(std::memory_order_relaxed) && spin_until(finished))
    return;
  caller_parked_.store(true, std::memory_order_seq_cst);
  for (std::uint32_t done = done_.load(std::memory_order_seq_cst);
       done != blocks; done = done_.load(std::memory_order_seq_cst))
    done_.wait(done, std::memory_order_seq_cst);
  caller_parked_.store(false, std::memory_order_relaxed);
}

void ThreadPool::worker_loop() {
  t_running_pool = this;
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_dispatch(seen);
    if (stopping_.load(std::memory_order_relaxed)) return;
    run_blocks();
  }
}

void for_each_index(ThreadPool* pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && pool->thread_count() > 1 && n > 1) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(2, hw);
}

std::size_t configured_thread_count() {
  return static_cast<std::size_t>(
      env_u64("CELLSCOPE_THREADS", default_thread_count(), 1, kMaxThreads));
}

}  // namespace cellscope
