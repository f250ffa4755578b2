#include "analysis/freq_features.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/stats.h"
#include "common/time_grid.h"
#include "traffic/profiles.h"

namespace cellscope {
namespace {

std::vector<double> tone(std::size_t k, double amplitude, double phase) {
  std::vector<double> x(TimeGrid::kSlots);
  for (std::size_t t = 0; t < x.size(); ++t)
    x[t] = amplitude * std::cos(2.0 * M_PI * static_cast<double>(k) *
                                    static_cast<double>(t) / x.size() +
                                phase);
  return x;
}

TEST(FreqFeatures, ExtractsAllSixNumbers) {
  auto x = tone(4, 0.5, 0.3);
  const auto day = tone(28, 1.5, -1.0);
  const auto half = tone(56, 0.8, 2.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += day[i] + half[i];
  const auto f = compute_freq_features(x);
  EXPECT_NEAR(f.amp_week, 0.5, 1e-9);
  EXPECT_NEAR(f.phase_week, 0.3, 1e-9);
  EXPECT_NEAR(f.amp_day, 1.5, 1e-9);
  EXPECT_NEAR(f.phase_day, -1.0, 1e-9);
  EXPECT_NEAR(f.amp_half_day, 0.8, 1e-9);
  EXPECT_NEAR(f.phase_half_day, 2.0, 1e-9);
}

TEST(FreqFeatures, QpFeatureIsTheDayDayHalfTriple) {
  FreqFeatures f;
  f.amp_day = 1.0;
  f.phase_day = 2.0;
  f.amp_half_day = 3.0;
  const auto qp = f.qp_feature();
  EXPECT_DOUBLE_EQ(qp[0], 1.0);
  EXPECT_DOUBLE_EQ(qp[1], 2.0);
  EXPECT_DOUBLE_EQ(qp[2], 3.0);
}

TEST(FreqFeatures, BatchMatchesSingle) {
  const std::vector<std::vector<double>> rows = {tone(28, 1.0, 0.0),
                                                 tone(56, 2.0, 1.0)};
  const auto batch = compute_freq_features(rows);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_NEAR(batch[0].amp_day, compute_freq_features(rows[0]).amp_day,
              1e-12);
  EXPECT_NEAR(batch[1].amp_half_day,
              compute_freq_features(rows[1]).amp_half_day, 1e-12);
}

TEST(FreqFeatures, WeekReadsTheBinsOfItsFourFoldTiling) {
  // Bins 4, 28 and 56 repeat every week, so the grid is its first week
  // tiled four times, and the week's bins 1, 7 and 14 carry the same
  // amplitudes and phases.
  auto x = tone(4, 0.5, 0.3);
  const auto day = tone(28, 1.5, -1.0);
  const auto half = tone(56, 0.8, 2.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += day[i] + half[i];
  const std::vector<double> week(x.begin(),
                                 x.begin() + TimeGrid::kSlotsPerWeek);
  const auto month = compute_freq_features(x);
  const auto f = compute_freq_features(week);
  EXPECT_NEAR(f.amp_week, month.amp_week, 1e-12);
  EXPECT_NEAR(f.phase_week, month.phase_week, 1e-12);
  EXPECT_NEAR(f.amp_day, month.amp_day, 1e-12);
  EXPECT_NEAR(f.phase_day, month.phase_day, 1e-12);
  EXPECT_NEAR(f.amp_half_day, month.amp_half_day, 1e-12);
  EXPECT_NEAR(f.phase_half_day, month.phase_half_day, 1e-12);
}

TEST(FreqFeatures, RequiresFullGrid) {
  EXPECT_THROW(compute_freq_features(std::vector<double>(100)), Error);
}

TEST(FreqFeatures, VarianceSpectrumPeaksAtDiscriminatingFrequencies) {
  // Rows differing only in their k=28 amplitude: the variance spectrum
  // must be (near) zero everywhere except k=28.
  std::vector<std::vector<double>> rows;
  for (double a = 0.5; a <= 2.0; a += 0.5) rows.push_back(tone(28, a, 0.0));
  const auto var = amplitude_variance_spectrum(rows, 60);
  for (std::size_t k = 0; k <= 60; ++k) {
    if (k == 28) {
      EXPECT_GT(var[k], 0.1);
    } else {
      EXPECT_NEAR(var[k], 0.0, 1e-9) << "k = " << k;
    }
  }
}

TEST(FreqFeatures, VarianceSpectrumOfCanonicalProfilesPeaksAtPrincipal) {
  // Fig. 13: across the five patterns, DFT-amplitude variance is largest
  // at the principal components (among low frequencies).
  std::vector<std::vector<double>> rows;
  for (const auto r : all_regions())
    rows.push_back(zscore(TrafficProfile::canonical(r).series()));
  const auto var = amplitude_variance_spectrum(rows, 100);
  // k=28 and k=56 must dominate their neighborhoods.
  EXPECT_GT(var[28], var[20]);
  EXPECT_GT(var[28], var[35]);
  EXPECT_GT(var[56], var[50]);
  EXPECT_GT(var[56], var[62]);
  EXPECT_GT(var[4], var[10]);
}

TEST(CircularMean, HandlesWraparound) {
  // Phases near ±π average to ±π, not 0.
  const std::vector<double> phases = {3.1, -3.1};
  const double m = circular_mean(phases);
  EXPECT_GT(std::fabs(m), 3.0);
}

TEST(CircularMean, MatchesArithmeticMeanForNearbyPhases) {
  const std::vector<double> phases = {0.5, 0.7, 0.9};
  EXPECT_NEAR(circular_mean(phases), 0.7, 1e-6);
}

TEST(CircularStddev, ZeroForIdenticalPhases) {
  const std::vector<double> phases = {1.2, 1.2, 1.2};
  EXPECT_NEAR(circular_stddev(phases), 0.0, 1e-6);
}

TEST(CircularStddev, GrowsWithDispersion) {
  const std::vector<double> tight = {1.0, 1.1, 0.9};
  const std::vector<double> wide = {0.0, 1.5, -1.5};
  EXPECT_LT(circular_stddev(tight), circular_stddev(wide));
}

TEST(CircularStats, EmptyInputThrows) {
  EXPECT_THROW(circular_mean(std::vector<double>{}), Error);
  EXPECT_THROW(circular_stddev(std::vector<double>{}), Error);
}

}  // namespace
}  // namespace cellscope
