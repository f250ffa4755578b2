#include "mapred/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace cellscope {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, FuturePropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(future.get(), Error);
}

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

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&counter] { ++counter; });
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
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
  // parallel_for partitions into at most workers * 4 block tasks, and
  // each block's future resolves only after its completion is counted.
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
