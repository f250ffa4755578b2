#include "traffic/trace_generator.h"

#include <gtest/gtest.h>

#include "city/deployment.h"
#include "common/error.h"
#include "common/stats.h"
#include "support/oracles.h"

namespace cellscope {
namespace {

struct Scenario {
  std::vector<Tower> towers;
  IntensityModel intensity;
};

Scenario make_scenario(std::size_t n_towers) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = n_towers;
  auto towers = deploy_towers(city, options);
  auto intensity = IntensityModel::create(towers, IntensityOptions{});
  return {std::move(towers), std::move(intensity)};
}

TraceOptions small_window() {
  TraceOptions options;
  options.day_begin = 0;
  options.day_end = 2;
  return options;
}

TEST(TraceGenerator, LogsStayInTheRequestedWindow) {
  const auto scenario = make_scenario(10);
  const auto result =
      generate_trace(scenario.towers, scenario.intensity, small_window());
  ASSERT_FALSE(result.logs.empty());
  for (const auto& log : result.logs) {
    EXPECT_LT(log.start_minute, 2u * 24u * 60u);
    EXPECT_GT(log.end_minute, log.start_minute);
  }
}

TEST(TraceGenerator, AllBytesArePositive) {
  const auto scenario = make_scenario(8);
  const auto result =
      generate_trace(scenario.towers, scenario.intensity, small_window());
  for (const auto& log : result.logs) EXPECT_GT(log.bytes, 0u);
}

TEST(TraceGenerator, TowerIdsAndAddressesAreConsistent) {
  const auto scenario = make_scenario(8);
  const auto result =
      generate_trace(scenario.towers, scenario.intensity, small_window());
  for (const auto& log : result.logs) {
    ASSERT_LT(log.tower_id, scenario.towers.size());
    EXPECT_EQ(log.address, scenario.towers[log.tower_id].address);
  }
}

TEST(TraceGenerator, IsDeterministic) {
  const auto scenario = make_scenario(6);
  const auto a =
      generate_trace(scenario.towers, scenario.intensity, small_window());
  const auto b =
      generate_trace(scenario.towers, scenario.intensity, small_window());
  ASSERT_EQ(a.logs.size(), b.logs.size());
  for (std::size_t i = 0; i < a.logs.size(); ++i)
    EXPECT_EQ(a.logs[i], b.logs[i]);
}

TEST(TraceGenerator, InjectsDuplicatesAtTheRequestedRate) {
  const auto scenario = make_scenario(10);
  TraceOptions options = small_window();
  options.duplicate_prob = 0.10;
  options.conflict_prob = 0.0;
  const auto result =
      generate_trace(scenario.towers, scenario.intensity, options);
  const auto base =
      result.logs.size() - result.duplicates_injected;
  const double rate = static_cast<double>(result.duplicates_injected) /
                      static_cast<double>(base);
  EXPECT_NEAR(rate, 0.10, 0.02);
}

TEST(TraceGenerator, NoDefectsWhenProbabilitiesAreZero) {
  const auto scenario = make_scenario(6);
  TraceOptions options = small_window();
  options.duplicate_prob = 0.0;
  options.conflict_prob = 0.0;
  const auto result =
      generate_trace(scenario.towers, scenario.intensity, options);
  EXPECT_EQ(result.duplicates_injected, 0u);
  EXPECT_EQ(result.conflicts_injected, 0u);
}

TEST(TraceGenerator, CleanBytesMatchCleanLogTotals) {
  // The clean bytes are the per-(tower, slot) sums of the original
  // (non-defect) logs; with defect injection disabled the trace itself
  // must sum to them.
  const auto scenario = make_scenario(6);
  TraceOptions options = small_window();
  options.duplicate_prob = 0.0;
  options.conflict_prob = 0.0;
  const auto result =
      generate_trace(scenario.towers, scenario.intensity, options);
  const auto clean = emitted_clean_bytes(result.logs, scenario.towers.size());
  std::vector<std::vector<double>> sums(
      scenario.towers.size(), std::vector<double>(TimeGrid::kSlots, 0.0));
  for (const auto& log : result.logs) {
    const std::size_t slot = log.start_minute / TimeGrid::kSlotMinutes;
    sums[log.tower_id][slot] += static_cast<double>(log.bytes);
  }
  for (std::size_t t = 0; t < sums.size(); ++t)
    for (std::size_t s = 0; s < TimeGrid::kSlots; ++s)
      EXPECT_NEAR(sums[t][s], clean[t][s], 1e-6);
}

TEST(TraceGenerator, EmitsTowerBySlotWithEachCopyAfterItsOriginal) {
  // The emission order trace_generator.h documents: towers in `towers`
  // order, slots ascending within a tower, and every injected copy right
  // after its original (or after the original's duplicate) — an exact
  // duplicate, or a conflicting copy with fewer bytes that ends one
  // minute after it starts.
  const auto scenario = make_scenario(8);
  TraceOptions options = small_window();
  options.duplicate_prob = 0.05;
  options.conflict_prob = 0.03;
  const auto result =
      generate_trace(scenario.towers, scenario.intensity, options);
  ASSERT_GT(result.duplicates_injected, 0u);
  ASSERT_GT(result.conflicts_injected, 0u);

  std::size_t tower = 0;
  std::size_t copies = 0;
  const TrafficLog* original = nullptr;
  for (const auto& log : result.logs) {
    if (original != nullptr && log.user_id == original->user_id &&
        log.tower_id == original->tower_id &&
        log.start_minute == original->start_minute) {
      ++copies;
      if (log == *original) continue;
      EXPECT_LT(log.bytes, original->bytes);
      EXPECT_EQ(log.end_minute, log.start_minute + 1);
      EXPECT_EQ(log.address, original->address);
      continue;
    }
    while (tower < scenario.towers.size() &&
           scenario.towers[tower].id != log.tower_id)
      ++tower;
    ASSERT_LT(tower, scenario.towers.size())
        << "tower " << log.tower_id << " out of order";
    if (original != nullptr && original->tower_id == log.tower_id) {
      ASSERT_LE(original->start_minute / TimeGrid::kSlotMinutes,
                log.start_minute / TimeGrid::kSlotMinutes);
    }
    original = &log;
  }
  EXPECT_EQ(copies, result.duplicates_injected + result.conflicts_injected);
}

TEST(TraceGenerator, SlotTotalsTrackTheIntensityModel) {
  const auto scenario = make_scenario(6);
  TraceOptions options;
  options.duplicate_prob = 0.0;
  options.conflict_prob = 0.0;
  options.day_begin = 0;
  options.day_end = 7;
  const auto result =
      generate_trace(scenario.towers, scenario.intensity, options);
  // Total clean bytes over the window should be within a few percent of
  // the expected intensity (session quantization + Poisson).
  const auto clean = emitted_clean_bytes(result.logs, scenario.towers.size());
  double clean_total = 0.0;
  double expected_total = 0.0;
  for (const auto& t : scenario.towers) {
    const auto expected = scenario.intensity.expected_series(t.id);
    for (std::size_t s = 0; s < 7u * TimeGrid::kSlotsPerDay; ++s)
      expected_total += expected[s];
    for (const double v : clean[t.id]) clean_total += v;
  }
  EXPECT_NEAR(clean_total / expected_total, 1.0, 0.1);
}

TEST(TraceGenerator, UserIdsAreWithinThePopulation) {
  const auto scenario = make_scenario(6);
  TraceOptions options = small_window();
  options.n_users = 100;
  const auto result =
      generate_trace(scenario.towers, scenario.intensity, options);
  for (const auto& log : result.logs) EXPECT_LT(log.user_id, 100u);
}

TEST(TraceGenerator, HeavyTailedUserActivity) {
  const auto scenario = make_scenario(10);
  TraceOptions options = small_window();
  options.n_users = 1000;
  const auto result =
      generate_trace(scenario.towers, scenario.intensity, options);
  std::vector<double> per_user(1000, 0.0);
  for (const auto& log : result.logs) per_user[log.user_id] += 1.0;
  // Heavy users (low ids, by the square sampling) dominate: the busiest
  // decile should hold several times the activity of the median decile.
  double first_decile = 0.0;
  double mid_decile = 0.0;
  for (int i = 0; i < 100; ++i) first_decile += per_user[i];
  for (int i = 400; i < 500; ++i) mid_decile += per_user[i];
  EXPECT_GT(first_decile, 2.0 * mid_decile);
}

TEST(TraceGenerator, ValidatesOptions) {
  const auto scenario = make_scenario(4);
  TraceOptions bad = small_window();
  bad.day_begin = 5;
  bad.day_end = 3;
  EXPECT_THROW(generate_trace(scenario.towers, scenario.intensity, bad),
               Error);
  TraceOptions bad2 = small_window();
  bad2.duplicate_prob = 1.5;
  EXPECT_THROW(generate_trace(scenario.towers, scenario.intensity, bad2),
               Error);
  TraceOptions bad3 = small_window();
  bad3.n_users = 0;
  EXPECT_THROW(generate_trace(scenario.towers, scenario.intensity, bad3),
               Error);
}

TEST(UniformFeed, ReproducesTheLoadTestFeedExactly) {
  // The gated perf_stream/perf_introspect baselines were recorded on the
  // feed the benches used to generate inline; this FNV-1a checksum over
  // every field of every record pins uniform_feed to those bytes.
  const auto logs = uniform_feed(10000, 400, 4321);
  ASSERT_EQ(logs.size(), 10000u);
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (const auto& log : logs) {
    mix(log.user_id);
    mix(log.tower_id);
    mix(log.start_minute);
    mix(log.end_minute);
    mix(log.bytes);
    mix(log.address.size());
  }
  EXPECT_EQ(hash, 0x9f70793d0f8de8adull);
  EXPECT_EQ(logs.front().user_id, 79359u);
  EXPECT_EQ(logs.front().tower_id, 144u);
  EXPECT_EQ(logs.back().start_minute, 40319u);  // clamped to the grid end
}

TEST(UniformFeed, StaysInRangeAndTimeOrderedUpToJitter) {
  const auto logs = uniform_feed(5000, 7, 99);
  constexpr std::uint32_t kGridMinutes =
      TimeGrid::kSlots * TimeGrid::kSlotMinutes;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const auto& log = logs[i];
    EXPECT_LE(log.user_id, 99999u);
    EXPECT_LT(log.tower_id, 7u);
    EXPECT_LT(log.start_minute, kGridMinutes);
    EXPECT_LE(log.end_minute - log.start_minute, 15u);
    EXPECT_GE(log.bytes, 100u);
    EXPECT_LE(log.bytes, 200000u);
    const auto base = i * kGridMinutes / logs.size();
    EXPECT_GE(log.start_minute, base);
    EXPECT_LE(log.start_minute, base + 30);
  }
  EXPECT_THROW(uniform_feed(10, 0, 1), Error);
}

}  // namespace
}  // namespace cellscope
