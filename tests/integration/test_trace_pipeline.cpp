// Integration of the session-level path: generate raw logs (with injected
// defects), shuffle them, persist to CSV, re-read, check that every
// address still geocodes, clean, vectorize per bin, and verify the result
// against the bytes of the original records the generator emitted — the
// paper's §2.2 + §3.2 preprocessing chain.
#include <gtest/gtest.h>

#include <filesystem>

#include "city/deployment.h"
#include "common/rng.h"
#include "common/stats.h"
#include "geo/address_codec.h"
#include "pipeline/cleaner.h"
#include "pipeline/vectorizer.h"
#include "support/oracles.h"
#include "traffic/trace_generator.h"
#include "traffic/trace_codec.h"

namespace cellscope {
namespace {

class TracePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto city = CityModel::create_default();
    DeploymentOptions deployment;
    deployment.n_towers = 8;
    towers_ = deploy_towers(city, deployment);
    intensity_ = std::make_unique<IntensityModel>(
        IntensityModel::create(towers_, IntensityOptions{}));
    trace_path_ = std::filesystem::temp_directory_path() /
                  ("cs_pipeline_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(trace_path_); }

  std::vector<Tower> towers_;
  std::unique_ptr<IntensityModel> intensity_;
  std::filesystem::path trace_path_;
};

TEST_F(TracePipelineTest, FullChainRecoversGroundTruth) {
  auto trace = generate_trace(towers_, *intensity_, coarse_days(3));
  const auto truth = emitted_clean_bytes(trace.logs, towers_.size());
  // Real logs arrive unordered across collection points; the chain must
  // not rely on a copy following its original.
  Rng(777).shuffle(trace.logs);

  // Persist and re-read (the unstructured-input path).
  write_trace(trace_path_.string(), trace.logs, TraceCodec::kCsv);
  const auto reloaded = read_trace(trace_path_.string(), TraceCodec::kCsv);
  ASSERT_EQ(reloaded.size(), trace.logs.size());

  // Every address survives the round trip and geocodes.
  const AddressCodec codec(CityModel::create_default().box());
  for (const auto& log : reloaded)
    ASSERT_TRUE(codec.decode(log.address).has_value()) << log.address;

  CleanStats stats;
  const auto cleaned = clean_logs(reloaded, &stats);
  EXPECT_EQ(stats.duplicates_removed, trace.duplicates_injected);
  EXPECT_EQ(stats.conflicts_resolved, trace.conflicts_injected);
  EXPECT_EQ(stats.malformed_dropped, 0u);

  // Vectorize and compare against ground truth, slot by slot.
  ThreadPool pool(default_thread_count());
  const auto matrix = vectorize_logs(cleaned, towers_, pool);
  for (std::size_t r = 0; r < matrix.n(); ++r) {
    const auto id = matrix.tower_ids[r];
    for (std::size_t s = 0; s < TimeGrid::kSlots; ++s)
      ASSERT_NEAR(matrix.rows[r][s], truth[id][s], 1e-6);
  }
}

TEST_F(TracePipelineTest, DirtyPipelineOvercountsCleanUndercountsNothing) {
  const auto trace = generate_trace(towers_, *intensity_, coarse_days(1));
  ASSERT_GT(trace.duplicates_injected, 0u);
  ASSERT_GT(trace.conflicts_injected, 0u);

  ThreadPool pool(2);
  const auto dirty = vectorize_logs(trace.logs, towers_, pool);
  const auto clean = vectorize_logs(clean_logs(trace.logs), towers_, pool);
  // Dirty >= clean everywhere (duplicates and conflicts only add bytes).
  for (std::size_t r = 0; r < dirty.n(); ++r)
    for (std::size_t s = 0; s < TimeGrid::kSlots; ++s)
      ASSERT_GE(dirty.rows[r][s] + 1e-9, clean.rows[r][s]);
  EXPECT_GT(sum(aggregate_series(dirty)), sum(aggregate_series(clean)));
}

}  // namespace
}  // namespace cellscope
