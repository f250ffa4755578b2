#include "mapred/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace cellscope {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSmallerThanPool) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.parallel_for(3, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ParallelForRethrowsWorkerFailure) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 7) throw Error("index 7 failed");
                                 }),
               Error);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<long> total{0};
  pool.parallel_for(100, [&total](std::size_t i) {
    total += static_cast<long>(i);
  });
  EXPECT_EQ(total.load(), 4950);
}

TEST(ThreadPool, NestedParallelForRunsInlineAndCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  std::atomic<int> off_thread{0};
  pool.parallel_for(10, [&](std::size_t i) {
    const auto outer = std::this_thread::get_id();
    pool.parallel_for(10, [&](std::size_t k) {
      if (std::this_thread::get_id() != outer) ++off_thread;
      ++hits[i * 10 + k];
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, ConcurrentCallersEachGetEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  constexpr int kRounds = 200;
  std::vector<std::atomic<int>> hits_a(kN);
  std::vector<std::atomic<int>> hits_b(kN);
  const auto caller = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int r = 0; r < kRounds; ++r)
      pool.parallel_for(kN, [&hits](std::size_t i) { ++hits[i]; });
  };
  std::thread a(caller, std::ref(hits_a));
  std::thread b(caller, std::ref(hits_b));
  a.join();
  b.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[i].load(), kRounds) << i;
    EXPECT_EQ(hits_b[i].load(), kRounds) << i;
  }
}

/// Runs a job whose blocks on one side (the caller's thread, or a worker)
/// throw, after the other side has started a block too; then checks the
/// failure is rethrown and the pool still covers every index.
void expect_rethrow_then_usable(bool throw_on_caller) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> thrower_started{false};
  std::atomic<bool> other_started{false};
  const auto wait_for = [](const std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  };
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t) {
                                   const bool on_caller =
                                       std::this_thread::get_id() == caller;
                                   if (on_caller == throw_on_caller) {
                                     wait_for(other_started);
                                     thrower_started = true;
                                     throw Error("block failed");
                                   }
                                   other_started = true;
                                   wait_for(thrower_started);
                                 }),
               Error);
  EXPECT_TRUE(thrower_started.load());
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RethrowsAFailureInTheCallersBlockAndStaysUsable) {
  expect_rethrow_then_usable(true);
}

TEST(ThreadPool, RethrowsAFailureInAWorkersBlockAndStaysUsable) {
  expect_rethrow_then_usable(false);
}

TEST(ThreadPool, DestroyingAPoolWithParkedWorkersReturns) {
  { ThreadPool never_used(4); }
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    pool.parallel_for(16, [&counter](std::size_t) { ++counter; });
    // Well past the spin window: every worker has parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, HundredThousandBackToBackTinyCallsComplete) {
  ThreadPool pool(4);
  std::vector<std::atomic<long>> hits(4);
  constexpr long kCalls = 100000;
  for (long c = 0; c < kCalls; ++c)
    pool.parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), kCalls);
}

TEST(ThreadPool, RequiresAtLeastOneWorker) {
  EXPECT_THROW(ThreadPool(0), Error);
}

TEST(ThreadPool, StatsCoverParallelForBlocks) {
  auto& registry = obs::MetricsRegistry::instance();
  auto& submitted = registry.counter("cellscope.mapred.tasks_submitted");
  auto& completed = registry.counter("cellscope.mapred.tasks_completed");
  ThreadPool pool(2);
  const auto submitted_before = submitted.value();
  const auto completed_before = completed.value();
  pool.parallel_for(100, [](std::size_t) {});
  const auto blocks = submitted.value() - submitted_before;
  // parallel_for partitions into at most thread_count() * 4 blocks and
  // counts them all completed before it returns.
  EXPECT_GE(blocks, 1u);
  EXPECT_LE(blocks, 8u);
  EXPECT_EQ(completed.value() - completed_before, blocks);
}

TEST(ThreadPool, DefaultThreadCountIsAtLeastTwo) {
  EXPECT_GE(default_thread_count(), 2u);
}

TEST(ThreadPool, ConfiguredThreadCountReadsAndChecksTheEnv) {
  ::setenv("CELLSCOPE_THREADS", "3", 1);
  EXPECT_EQ(configured_thread_count(), 3u);
  for (const char* bad : {"abc", "0", "3x", "-1", "99999999999999999999"}) {
    ::setenv("CELLSCOPE_THREADS", bad, 1);
    EXPECT_THROW(configured_thread_count(), InvalidArgument) << bad;
  }
  ::unsetenv("CELLSCOPE_THREADS");
  EXPECT_EQ(configured_thread_count(), default_thread_count());
}

}  // namespace
}  // namespace cellscope
