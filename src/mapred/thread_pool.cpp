#include "mapred/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace cellscope {

ThreadPool::ThreadPool(std::size_t n_threads) {
  CS_CHECK_MSG(n_threads >= 1, "thread pool needs at least one worker");
  auto& registry = obs::MetricsRegistry::instance();
  metric_submitted_ = &registry.counter("cellscope.mapred.tasks_submitted");
  metric_completed_ = &registry.counter("cellscope.mapred.tasks_completed");
  metric_queue_depth_ = &registry.gauge("cellscope.mapred.queue_depth");
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  QueuedTask queued{std::move(task), {}, std::chrono::steady_clock::now()};
  auto future = queued.done.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CS_CHECK_MSG(!stopping_, "submit on a stopping pool");
    tasks_.push(std::move(queued));
    metric_submitted_->add(1);
    metric_queue_depth_->add(1);
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t blocks = std::min(n, workers_.size() * 4);
  const std::size_t per_block = (n + blocks - 1) / blocks;
  std::vector<std::future<void>> futures;
  futures.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * per_block;
    const std::size_t end = std::min(n, begin + per_block);
    if (begin >= end) break;
    futures.push_back(submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  // Every block must finish before fn goes out of scope, so wait for all of
  // them before rethrowing the first failure.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  for (;;) {
    QueuedTask queued;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and drained
      queued = std::move(tasks_.front());
      tasks_.pop();
    }
    auto& trace = obs::StageTrace::instance();
    if (trace.enabled()) {
      // Tasks are coarse (per-shard drains, parallel_for blocks), so one
      // retroactive span per dequeue is cheap and makes pool contention
      // visible on the trace timeline next to the stage spans.
      const double enqueued_us = obs::time_point_us(queued.enqueued);
      const double started_us =
          obs::time_point_us(std::chrono::steady_clock::now());
      trace.record_complete("pool.queue_wait", "mapred", enqueued_us,
                            started_us - enqueued_us,
                            "\"worker\":" + std::to_string(worker_index));
    }
    metric_queue_depth_->add(-1);
    std::exception_ptr error;
    try {
      queued.task();
    } catch (...) {
      error = std::current_exception();
    }
    metric_completed_->add(1);
    if (error)
      queued.done.set_exception(error);
    else
      queued.done.set_value();
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
