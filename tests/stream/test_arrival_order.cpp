// Properties of perturb_arrival_order's arrival model (stream/replay.h)
// over n in {1, 1000, 200000} and skew_window in {0, 1, 32, 256}: every
// on-time record arrives within ±skew_window positions of its start-time
// rank, the late tail keeps the relative order the records would have
// arrived in, and one seed gives one order whatever the input order.
// Also pins calibrated_feed's 40-tower month byte for byte.
#include "stream/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/experiment.h"

namespace cellscope {
namespace {

/// n records whose start minute is their canonical rank, in reverse
/// order (or forward with `forward`) so the canonical sort has work.
std::vector<TrafficLog> ranked_records(std::size_t n, bool forward = false) {
  std::vector<TrafficLog> logs(n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    auto& log = logs[forward ? rank : n - 1 - rank];
    log.start_minute = static_cast<std::uint32_t>(rank);
    log.end_minute = log.start_minute + 1;
    log.tower_id = static_cast<std::uint32_t>(rank % 7);
    log.bytes = 100 + rank;
  }
  return logs;
}

/// Position of each rank in `arrival`; fails when `arrival` is not a
/// permutation of ranks 0..n-1.
std::vector<std::size_t> positions_of_ranks(
    const std::vector<TrafficLog>& arrival, std::size_t n) {
  EXPECT_EQ(arrival.size(), n);
  std::vector<std::size_t> at(n, n);
  for (std::size_t pos = 0; pos < arrival.size(); ++pos) {
    const std::size_t rank = arrival[pos].start_minute;
    EXPECT_LT(rank, n);
    if (rank >= n) continue;
    EXPECT_EQ(at[rank], n) << "rank " << rank << " arrives twice";
    at[rank] = pos;
  }
  return at;
}

class ArrivalOrder
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
 protected:
  std::size_t n() const { return std::get<0>(GetParam()); }
  std::size_t window() const { return std::get<1>(GetParam()); }

  ReplayOptions options(std::uint64_t seed, double late_fraction) const {
    ReplayOptions replay;
    replay.seed = seed;
    replay.skew_window = window();
    replay.late_fraction = late_fraction;
    return replay;
  }
};

TEST_P(ArrivalOrder, OnTimeRecordsMoveAtMostTheWindow) {
  const auto arrival =
      perturb_arrival_order(ranked_records(n()), options(11, 0.0));
  const auto at = positions_of_ranks(arrival, n());
  std::size_t worst = 0;
  for (std::size_t rank = 0; rank < n(); ++rank)
    worst = std::max(worst, at[rank] > rank ? at[rank] - rank
                                            : rank - at[rank]);
  EXPECT_LE(worst, window());
  // A tie keeps read order, so a window of 1 leaves the order as it is;
  // wider windows do move records.
  if (n() > 1 && window() > 1) {
    EXPECT_GT(worst, 0u);
  }
}

TEST_P(ArrivalOrder, LateTailKeepsItsRelativeOrder) {
  // The on-time order of the same seed; the late draw has its own stream,
  // so a late fraction only lifts records out of it.
  const auto on_time =
      perturb_arrival_order(ranked_records(n()), options(12, 0.0));
  const auto arrival =
      perturb_arrival_order(ranked_records(n()), options(12, 0.05));
  const auto on_time_at = positions_of_ranks(on_time, n());
  positions_of_ranks(arrival, n());

  // arrival must be on_time with a subsequence moved to the end in its
  // own order: on_time positions rise through the prefix, fall once at
  // the first late record, and rise through the tail.
  std::size_t descents = 0;
  std::size_t tail_begin = n();
  for (std::size_t pos = 1; pos < arrival.size(); ++pos) {
    if (on_time_at[arrival[pos].start_minute] <
        on_time_at[arrival[pos - 1].start_minute]) {
      ++descents;
      tail_begin = pos;
    }
  }
  EXPECT_LE(descents, 1u);
  if (n() >= 200000) {
    // ~5 % late: a sample, not a fixed cut.
    const double late = static_cast<double>(n() - tail_begin);
    EXPECT_GT(late, 0.04 * static_cast<double>(n()));
    EXPECT_LT(late, 0.06 * static_cast<double>(n()));
  }
}

TEST_P(ArrivalOrder, SameSeedGivesTheSameOrder) {
  const auto a = perturb_arrival_order(ranked_records(n()), options(5, 0.01));
  const auto b = perturb_arrival_order(ranked_records(n(), /*forward=*/true),
                                       options(5, 0.01));
  EXPECT_EQ(a, b);
  if (n() > 1 && window() > 1) {
    const auto c =
        perturb_arrival_order(ranked_records(n()), options(6, 0.01));
    EXPECT_NE(a, c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndWindows, ArrivalOrder,
    ::testing::Combine(::testing::Values<std::size_t>(1, 1000, 200000),
                       ::testing::Values<std::size_t>(0, 1, 32, 256)));

TEST(CalibratedFeed, PinsTheFortyTowerMonth) {
  // The month cellscoped --towers=40 --records=20000 replays each round
  // and trace_convert synth writes at the same flags: an FNV-1a over
  // every field of every record, in arrival order, pins its bytes.
  ExperimentConfig config;
  config.seed = 2015;
  config.n_towers = 40;
  const CityRecipe recipe = city_recipe(config);
  const auto city = CityModel::create_default(recipe.city_seed);
  const auto towers = deploy_towers(city, recipe.deployment);
  const auto intensity = IntensityModel::create(towers, recipe.intensity);
  const TraceResult feed =
      calibrated_feed(towers, intensity, config.seed, 20000);
  ASSERT_EQ(feed.logs.size(), 19977u);
  EXPECT_EQ(feed.duplicates_injected, 395u);
  EXPECT_EQ(feed.conflicts_injected, 215u);
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (const auto& log : feed.logs) {
    mix(log.user_id);
    mix(log.tower_id);
    mix(log.start_minute);
    mix(log.end_minute);
    mix(log.bytes);
    mix(log.address.size());
    for (const char c : log.address) mix(static_cast<unsigned char>(c));
  }
  EXPECT_EQ(hash, 0xdd8bce916742c65ull);
}

}  // namespace
}  // namespace cellscope
