#include "traffic/profiles.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/time_features.h"
#include "common/error.h"
#include "common/stats.h"

namespace cellscope {
namespace {

TEST(DayShape, ValueIsBoundedByOne) {
  DayShape shape;
  shape.bumps = {{12.0, 1.0, 2.0}, {13.0, 1.0, 2.0}};  // overlapping
  shape.floor = 0.1;
  for (int h = 0; h < 24; ++h)
    EXPECT_LE(shape.value(static_cast<double>(h)), 1.0 + 1e-12);
}

TEST(DayShape, FloorHoldsAtNight) {
  DayShape shape;
  shape.bumps = {{12.0, 1.0, 1.0}};
  shape.floor = 0.2;
  shape.dip_depth = 0.0;
  EXPECT_NEAR(shape.value(0.0), 0.2, 1e-6);
  EXPECT_NEAR(shape.value(12.0), 1.0, 1e-6);
}

TEST(DayShape, DipCarvesTheValley) {
  DayShape shape;
  shape.bumps = {{12.0, 1.0, 1.0}};
  shape.floor = 0.2;
  shape.dip_depth = 0.3;
  shape.dip_hour = 4.7;
  EXPECT_LT(shape.value(4.7), shape.value(0.0));
}

TEST(DayShape, HourRangeIsValidated) {
  DayShape shape;
  shape.bumps = {{12.0, 1.0, 1.0}};
  EXPECT_THROW(shape.value(24.0), Error);
  EXPECT_THROW(shape.value(-0.1), Error);
}

TEST(TrafficProfile, SeriesHasGridLength) {
  for (const auto r : all_regions()) {
    const auto p = TrafficProfile::canonical(r);
    EXPECT_EQ(p.series().size(), TimeGrid::kSlots);
  }
}

TEST(TrafficProfile, AllRatesArePositive) {
  for (const auto r : all_regions()) {
    const auto p = TrafficProfile::canonical(r);
    for (const double v : p.series()) EXPECT_GT(v, 0.0);
  }
}

TEST(TrafficProfile, PeakMagnitudesMatchTable4) {
  // Table 4 maximum traffic (weekday): resident 7.77e8, transport 2.76e8,
  // office 4.69e8, entertainment 4.55e8.
  EXPECT_NEAR(
      max_value(TrafficProfile::canonical(FunctionalRegion::kResident)
                    .weekday_day()),
      7.77e8, 0.05e8);
  EXPECT_NEAR(
      max_value(TrafficProfile::canonical(FunctionalRegion::kTransport)
                    .weekday_day()),
      2.76e8, 0.05e8);
  EXPECT_NEAR(max_value(TrafficProfile::canonical(FunctionalRegion::kOffice)
                            .weekday_day()),
              4.69e8, 0.05e8);
  EXPECT_NEAR(
      max_value(TrafficProfile::canonical(FunctionalRegion::kEntertainment)
                    .weekday_day()),
      4.55e8, 0.05e8);
}

TEST(TrafficProfile, PeakValleyRatiosFollowTable4Ordering) {
  // Transport >> entertainment > office > resident/comprehensive.
  auto ratio = [](FunctionalRegion r) {
    const auto day = TrafficProfile::canonical(r).weekday_day();
    return max_value(day) / *std::ranges::min_element(day);
  };
  const double transport = ratio(FunctionalRegion::kTransport);
  const double office = ratio(FunctionalRegion::kOffice);
  const double entertainment = ratio(FunctionalRegion::kEntertainment);
  const double resident = ratio(FunctionalRegion::kResident);
  EXPECT_GT(transport, 80.0);   // paper: 133
  EXPECT_GT(entertainment, office);
  EXPECT_GT(office, resident);
  EXPECT_NEAR(resident, 8.9, 3.0);  // paper: 8.93
}

TEST(TrafficProfile, WeekdayWeekendRatiosFollowFig10) {
  // Fig 10(a): transport 1.49, office 1.79, others ≈ 1.
  auto wd_we_ratio = [](FunctionalRegion r) {
    const auto f =
        compute_time_features(TrafficProfile::canonical(r).series());
    return f.weekday_weekend_ratio;
  };
  EXPECT_NEAR(wd_we_ratio(FunctionalRegion::kTransport), 1.49, 0.35);
  EXPECT_NEAR(wd_we_ratio(FunctionalRegion::kOffice), 1.79, 0.35);
  EXPECT_NEAR(wd_we_ratio(FunctionalRegion::kResident), 1.0, 0.15);
  EXPECT_NEAR(wd_we_ratio(FunctionalRegion::kEntertainment), 1.0, 0.2);
}

TEST(TrafficProfile, PeakTimesFollowTable5) {
  // Resident peak ≈ 21:30; office late morning / midday; entertainment
  // 18:00 weekday vs ≈12:30 weekend; valleys 4:00-5:00.
  const auto resident = compute_time_features(
      TrafficProfile::canonical(FunctionalRegion::kResident).series());
  EXPECT_NEAR(resident.weekday.peak_hour, 21.5, 0.8);
  EXPECT_NEAR(resident.weekday.valley_hour, 4.7, 1.0);

  const auto entertainment = compute_time_features(
      TrafficProfile::canonical(FunctionalRegion::kEntertainment).series());
  EXPECT_NEAR(entertainment.weekday.peak_hour, 18.0, 1.0);
  EXPECT_NEAR(entertainment.weekend.peak_hour, 12.5, 1.5);

  const auto office = compute_time_features(
      TrafficProfile::canonical(FunctionalRegion::kOffice).series());
  EXPECT_GT(office.weekday.peak_hour, 9.5);
  EXPECT_LT(office.weekday.peak_hour, 14.0);
}

TEST(TrafficProfile, TransportHasTwoWeekdayPeaks) {
  // Table 5: transport peaks at ~8:00 and ~18:00 on weekdays.
  const auto f = compute_time_features(
      TrafficProfile::canonical(FunctionalRegion::kTransport).series());
  ASSERT_GE(f.weekday.peak_hours.size(), 2u);
  std::vector<double> hours = f.weekday.peak_hours;
  std::sort(hours.begin(), hours.end());
  EXPECT_NEAR(hours.front(), 8.0, 1.0);
  EXPECT_NEAR(hours.back(), 18.5, 1.0);
}

TEST(TrafficProfile, RatesRepeatWeekly) {
  const auto p = TrafficProfile::canonical(FunctionalRegion::kOffice);
  for (std::size_t s = 0; s < TimeGrid::kSlotsPerWeek; s += 17)
    EXPECT_DOUBLE_EQ(p.rate(s), p.rate(s + TimeGrid::kSlotsPerWeek));
}

TEST(TrafficProfile, ComprehensiveIsAMixture) {
  // The comprehensive profile must correlate strongly with the Table-1
  // weighted sum of the pure profiles (it is that mixture, re-scaled).
  const auto comprehensive =
      TrafficProfile::canonical(FunctionalRegion::kComprehensive).series();
  const auto mix = table1_region_mix();
  const auto& pure = pure_profiles();
  std::vector<const TrafficProfile*> ptrs;
  std::vector<double> weights;
  for (int i = 0; i < 4; ++i) {
    ptrs.push_back(&pure[i]);
    weights.push_back(mix[i]);
  }
  const auto mixed = TrafficProfile::mix_series(ptrs, weights);
  EXPECT_GT(pearson(comprehensive, mixed), 0.99);
}

TEST(TrafficProfile, MixSeriesIsLinear) {
  const auto& pure = pure_profiles();
  const auto a = TrafficProfile::mix_series({&pure[0]}, {2.0});
  const auto b = pure[0].series();
  for (std::size_t s = 0; s < a.size(); s += 101)
    EXPECT_NEAR(a[s], 2.0 * b[s], 1e-6);
}

TEST(TrafficProfile, ConstructorValidates) {
  DayShape shape;
  shape.bumps = {{12.0, 1.0, 1.0}};
  EXPECT_THROW(TrafficProfile(shape, shape, 0.0, 1e8), Error);
  EXPECT_THROW(TrafficProfile(shape, shape, 1.0, -1.0), Error);
}

TEST(TrafficProfile, PureProfilesAreInRegionOrder) {
  const auto& pure = pure_profiles();
  ASSERT_EQ(pure.size(), 4u);
  // Transport (index 1) has the deepest relative valley.
  auto relative_min = [](const TrafficProfile& p) {
    const auto day = p.weekday_day();
    return *std::ranges::min_element(day) / max_value(day);
  };
  for (int i = 0; i < 4; ++i) {
    if (i != 1) {
      EXPECT_LT(relative_min(pure[1]), relative_min(pure[i]));
    }
  }
}

}  // namespace
}  // namespace cellscope
