#include "pipeline/vectorizer.h"

#include <gtest/gtest.h>

#include "city/deployment.h"
#include "common/stats.h"
#include "pipeline/cleaner.h"
#include "support/oracles.h"
#include "traffic/trace_generator.h"

namespace cellscope {
namespace {

std::vector<Tower> make_towers(std::size_t n) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = n;
  return deploy_towers(city, options);
}

TEST(Vectorizer, AggregatesLogsIntoCorrectSlots) {
  const auto towers = make_towers(3);
  std::vector<TrafficLog> logs;
  TrafficLog log;
  log.user_id = 1;
  log.tower_id = towers[0].id;
  log.start_minute = 25;  // slot 2
  log.end_minute = 30;
  log.bytes = 1000;
  logs.push_back(log);
  log.bytes = 500;
  logs.push_back(log);  // same slot, summed
  log.tower_id = towers[1].id;
  log.start_minute = 0;  // slot 0
  log.bytes = 77;
  logs.push_back(log);

  ThreadPool pool(2);
  const auto matrix = vectorize_logs(logs, towers, pool);
  EXPECT_EQ(matrix.n(), 3u);
  EXPECT_DOUBLE_EQ(matrix.rows[0][2], 1500.0);
  EXPECT_DOUBLE_EQ(matrix.rows[1][0], 77.0);
  EXPECT_DOUBLE_EQ(matrix.rows[2][0], 0.0);
}

TEST(Vectorizer, IgnoresUnknownTowersAndOutOfGridSlots) {
  const auto towers = make_towers(2);
  TrafficLog unknown;
  unknown.tower_id = 999;
  unknown.start_minute = 0;
  unknown.end_minute = 5;
  unknown.bytes = 100;
  TrafficLog late;
  late.tower_id = towers[0].id;
  late.start_minute = static_cast<std::uint32_t>(TimeGrid::kSlots) * 10 + 5;
  late.end_minute = late.start_minute + 1;
  late.bytes = 100;
  ThreadPool pool(2);
  const auto matrix = vectorize_logs({unknown, late}, towers, pool);
  for (const auto& row : matrix.rows)
    for (const double v : row) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Vectorizer, CleanedTraceRecoversGroundTruthBytes) {
  // The headline pipeline property: generate (with defects) -> clean ->
  // vectorize must reproduce the per-(tower, slot) bytes of the original
  // records the generator emitted, exactly.
  const auto towers = make_towers(5);
  const auto intensity = IntensityModel::create(towers, IntensityOptions{});
  TraceOptions trace_options;
  trace_options.day_begin = 0;
  trace_options.day_end = 2;
  trace_options.duplicate_prob = 0.05;
  trace_options.conflict_prob = 0.03;
  const auto trace = generate_trace(towers, intensity, trace_options);
  ASSERT_GT(trace.duplicates_injected, 0u);
  ASSERT_GT(trace.conflicts_injected, 0u);
  const auto truth = emitted_clean_bytes(trace.logs, towers.size());

  const auto cleaned = clean_logs(trace.logs);
  ThreadPool pool(2);
  const auto matrix = vectorize_logs(cleaned, towers, pool);
  for (std::size_t r = 0; r < matrix.n(); ++r) {
    const auto tower_id = matrix.tower_ids[r];
    for (std::size_t s = 0; s < TimeGrid::kSlots; ++s) {
      ASSERT_NEAR(matrix.rows[r][s], truth[tower_id][s], 1e-6)
          << "tower " << tower_id << " slot " << s;
    }
  }
}

TEST(Vectorizer, WithoutCleaningDefectsInflateTraffic) {
  const auto towers = make_towers(4);
  const auto intensity = IntensityModel::create(towers, IntensityOptions{});
  TraceOptions trace_options;
  trace_options.day_begin = 0;
  trace_options.day_end = 1;
  trace_options.duplicate_prob = 0.2;
  const auto trace = generate_trace(towers, intensity, trace_options);
  ThreadPool pool(2);
  const auto dirty = vectorize_logs(trace.logs, towers, pool);
  const auto clean = vectorize_logs(clean_logs(trace.logs), towers, pool);
  EXPECT_GT(sum(aggregate_series(dirty)), sum(aggregate_series(clean)));
}

TEST(VectorizeIntensity, MatchesModelScale) {
  const auto towers = make_towers(6);
  const auto intensity = IntensityModel::create(towers, IntensityOptions{});
  const auto matrix = vectorize_intensity(towers, intensity, 7);
  ASSERT_EQ(matrix.n(), towers.size());
  for (std::size_t r = 0; r < matrix.n(); ++r) {
    const auto expected = intensity.expected_series(matrix.tower_ids[r]);
    // Total sampled bytes within noise of the expectation.
    EXPECT_NEAR(sum(matrix.rows[r]) / sum(expected), 1.0, 0.05);
  }
}

TEST(VectorizeIntensity, IsDeterministicInSeed) {
  const auto towers = make_towers(4);
  const auto intensity = IntensityModel::create(towers, IntensityOptions{});
  const auto a = vectorize_intensity(towers, intensity, 11);
  const auto b = vectorize_intensity(towers, intensity, 11);
  const auto c = vectorize_intensity(towers, intensity, 12);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_NE(a.rows, c.rows);
}

}  // namespace
}  // namespace cellscope
