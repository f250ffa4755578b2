#include "analysis/time_features.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "core/experiment.h"
#include "support/oracles.h"
#include "traffic/profiles.h"

namespace cellscope {
namespace {

/// A synthetic series with a daily Gaussian peak at `peak_hour`, weekend
/// traffic scaled by `weekend_scale`.
std::vector<double> synthetic_series(double peak_hour, double weekend_scale,
                                     double floor = 0.1) {
  std::vector<double> series(TimeGrid::kSlots);
  for (std::size_t s = 0; s < series.size(); ++s) {
    const double h = TimeGrid::hour_of_day(s);
    double d = std::fabs(h - peak_hour);
    d = std::min(d, 24.0 - d);
    const double value = floor + std::exp(-d * d / 8.0);
    series[s] = value * (TimeGrid::is_weekday(s) ? 1.0 : weekend_scale);
  }
  return series;
}

TEST(TimeFeatures, FindsThePeakHour) {
  const auto f = compute_time_features(synthetic_series(14.0, 1.0));
  EXPECT_NEAR(f.weekday.peak_hour, 14.0, 0.5);
  EXPECT_NEAR(f.weekend.peak_hour, 14.0, 0.5);
}

TEST(TimeFeatures, FindsTheValleyOppositeThePeak) {
  const auto f = compute_time_features(synthetic_series(12.0, 1.0));
  // Valley is on the far side of the clock (0:00 or 24:00 side).
  const double valley = f.weekday.valley_hour;
  EXPECT_TRUE(valley < 3.0 || valley > 21.0) << valley;
}

TEST(TimeFeatures, WeekdayWeekendRatioMatchesScale) {
  const auto f = compute_time_features(synthetic_series(12.0, 0.5));
  EXPECT_NEAR(f.weekday_weekend_ratio, 2.0, 0.05);
  const auto flat = compute_time_features(synthetic_series(12.0, 1.0));
  EXPECT_NEAR(flat.weekday_weekend_ratio, 1.0, 0.01);
}

TEST(TimeFeatures, PeakValleyRatio) {
  const auto f = compute_time_features(synthetic_series(12.0, 1.0, 0.1));
  // Max ≈ 1.1, min ≈ 0.1 -> ratio ≈ 11.
  EXPECT_NEAR(f.weekday.peak_valley_ratio, 11.0, 1.5);
}

TEST(TimeFeatures, TotalsSplitByDayType) {
  std::vector<double> series(TimeGrid::kSlots, 0.0);
  for (std::size_t s = 0; s < series.size(); ++s)
    series[s] = TimeGrid::is_weekday(s) ? 2.0 : 3.0;
  const auto f = compute_time_features(series);
  EXPECT_DOUBLE_EQ(f.weekday.total_bytes, 2.0 * 20 * 144);
  EXPECT_DOUBLE_EQ(f.weekend.total_bytes, 3.0 * 8 * 144);
  EXPECT_NEAR(f.weekday_weekend_ratio, 2.0 / 3.0, 1e-9);
}

TEST(TimeFeatures, DetectsDoubleHumps) {
  // Two daily peaks at 8:00 and 18:00 (the transport signature).
  std::vector<double> series(TimeGrid::kSlots);
  for (std::size_t s = 0; s < series.size(); ++s) {
    const double h = TimeGrid::hour_of_day(s);
    auto bump = [&](double center) {
      double d = std::fabs(h - center);
      d = std::min(d, 24.0 - d);
      return std::exp(-d * d / 2.0);
    };
    series[s] = 0.05 + bump(8.0) + 0.9 * bump(18.0);
  }
  const auto f = compute_time_features(series);
  ASSERT_EQ(f.weekday.peak_hours.size(), 2u);
  std::vector<double> hours = f.weekday.peak_hours;
  std::sort(hours.begin(), hours.end());
  EXPECT_NEAR(hours[0], 8.0, 0.5);
  EXPECT_NEAR(hours[1], 18.0, 0.5);
}

TEST(TimeFeatures, SecondaryFractionFiltersSmallBumps) {
  // A second bump counts as a peak only at >= 0.55 of the main one.
  auto two_bumps = [](double minor_height) {
    std::vector<double> series(TimeGrid::kSlots);
    for (std::size_t s = 0; s < series.size(); ++s) {
      const double h = TimeGrid::hour_of_day(s);
      auto bump = [&](double center) {
        double d = std::fabs(h - center);
        d = std::min(d, 24.0 - d);
        return std::exp(-d * d / 2.0);
      };
      series[s] = 0.05 + bump(12.0) + minor_height * bump(20.0);
    }
    return series;
  };
  const auto small = compute_time_features(two_bumps(0.3));
  EXPECT_EQ(small.weekday.peak_hours.size(), 1u);
  const auto large = compute_time_features(two_bumps(0.7));
  EXPECT_EQ(large.weekday.peak_hours.size(), 2u);
}

TEST(TimeFeatures, MeanDayHas144Slots) {
  const auto f = compute_time_features(synthetic_series(10.0, 1.0));
  EXPECT_EQ(f.weekday.mean_day.size(),
            static_cast<std::size_t>(TimeGrid::kSlotsPerDay));
  EXPECT_EQ(f.weekend.mean_day.size(),
            static_cast<std::size_t>(TimeGrid::kSlotsPerDay));
}

TEST(TimeFeatures, RequiresFullGrid) {
  EXPECT_THROW(compute_time_features(std::vector<double>(100)), Error);
}

TEST(TimeFeatures, FormatPeakTime) {
  EXPECT_EQ(format_peak_time(21.5), "21:30");
  EXPECT_EQ(format_peak_time(8.0), "08:00");
}

TEST(TimeFeatures, ZeroMinTrafficGivesInfiniteRatio) {
  std::vector<double> series(TimeGrid::kSlots, 0.0);
  for (std::size_t s = 0; s < series.size(); ++s)
    if (TimeGrid::hour_of_day(s) > 6.0) series[s] = 1.0;
  const auto f = compute_time_features(series);
  EXPECT_TRUE(std::isinf(f.weekday.peak_valley_ratio));
}

// Parameterized sweep over peak positions.
class PeakPosition : public ::testing::TestWithParam<double> {};

TEST_P(PeakPosition, PeakIsLocatedAnywhereOnTheClock) {
  const double peak = GetParam();
  const auto f = compute_time_features(synthetic_series(peak, 1.0));
  double err = std::fabs(f.weekday.peak_hour - peak);
  err = std::min(err, 24.0 - err);
  EXPECT_LT(err, 0.5) << "peak at " << peak;
}

INSTANTIATE_TEST_SUITE_P(Hours, PeakPosition,
                         ::testing::Values(0.0, 4.5, 8.0, 12.0, 15.5, 18.0,
                                           21.5, 23.5));

TEST(TimeFeatures, PinsTheTwoHundredTowerCity) {
  // Peak hours, peak and valley of the whole city's traffic (200 towers,
  // seed 2015), weekday then weekend: FNV-1a 64 over their bytes.
  ExperimentConfig config;
  config.seed = 2015;
  config.n_towers = 200;
  const auto f =
      compute_time_features(Experiment::run(config).total_aggregate());
  std::uint64_t hash = kFnv1aBasis;
  for (const DayTypeFeatures* d : {&f.weekday, &f.weekend}) {
    hash = fnv1a(d->peak_hours.data(), d->peak_hours.size() * sizeof(double),
                 hash);
    for (const double v :
         {d->max_traffic, d->min_traffic, d->peak_hour, d->valley_hour})
      hash = fnv1a(&v, sizeof v, hash);
  }
  EXPECT_EQ(f.weekday.peak_hours.size(), 2u);
  EXPECT_EQ(hash, 0x9650dcb2febc9e36ull);
}

}  // namespace
}  // namespace cellscope
