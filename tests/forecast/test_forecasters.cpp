#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>

#include "city/deployment.h"
#include "common/error.h"
#include "common/stats.h"
#include "common/rng.h"
#include "traffic/profiles.h"
#include "forecast/metrics.h"
#include "forecast/pattern_forecaster.h"
#include "forecast/seasonal_naive.h"
#include "forecast/spectral_forecaster.h"
#include "traffic/intensity_model.h"
#include "support/oracles.h"

namespace cellscope {
namespace {

/// A noisy weekly-periodic series: three weeks train + one week test.
struct Series {
  std::vector<double> train;  // 3 weeks
  std::vector<double> test;   // 1 week
};

Series tower_series(double noise_cv, std::uint64_t seed = 3) {
  const auto city = CityModel::create_default();
  DeploymentOptions deployment;
  deployment.n_towers = 20;
  auto towers = deploy_towers(city, deployment);
  IntensityOptions options;
  options.noise_cv = noise_cv;
  const auto intensity = IntensityModel::create(towers, options);
  Rng rng(seed);
  const auto full = intensity.sample_series(0, rng);
  Series s;
  s.train.assign(full.begin(), full.begin() + 3 * TimeGrid::kSlotsPerWeek);
  s.test.assign(full.begin() + 3 * TimeGrid::kSlotsPerWeek, full.end());
  return s;
}

TEST(SeasonalNaive, ExactOnPerfectlyPeriodicSeries) {
  const auto s = tower_series(0.0);
  const auto forecast = seasonal_naive_forecast(s.train, s.test.size());
  ASSERT_EQ(forecast.size(), s.test.size());
  for (std::size_t i = 0; i < s.test.size(); i += 37)
    EXPECT_NEAR(forecast[i], s.test[i], 1e-9);
}

TEST(SeasonalNaive, FallsBackToDailySeasonWithShortHistory) {
  std::vector<double> two_days;
  for (int s = 0; s < 2 * TimeGrid::kSlotsPerDay; ++s)
    two_days.push_back(std::sin(2.0 * M_PI * s / TimeGrid::kSlotsPerDay));
  const auto forecast = seasonal_naive_forecast(two_days, 144);
  for (int s = 0; s < 144; s += 11)
    EXPECT_NEAR(forecast[static_cast<std::size_t>(s)],
                two_days[static_cast<std::size_t>(s)], 1e-9);
}

TEST(SeasonalNaive, HorizonBeyondOneSeasonWraps) {
  const auto s = tower_series(0.0);
  const auto forecast =
      seasonal_naive_forecast(s.train, 2 * TimeGrid::kSlotsPerWeek);
  for (int i = 0; i < TimeGrid::kSlotsPerWeek; i += 101)
    EXPECT_NEAR(forecast[static_cast<std::size_t>(i)],
                forecast[static_cast<std::size_t>(i) + TimeGrid::kSlotsPerWeek],
                1e-9);
}

TEST(SeasonalNaive, RequiresOneDay) {
  EXPECT_THROW(seasonal_naive_forecast(std::vector<double>(100), 10), Error);
}

TEST(SpectralForecast, MeanWeekIsNonNegativeAndWeekLong) {
  // A one-week horizon tiles the smoothed mean week once.
  const auto s = tower_series(0.2);
  const auto week = spectral_forecast(s.train, TimeGrid::kSlotsPerWeek);
  ASSERT_EQ(week.size(), static_cast<std::size_t>(TimeGrid::kSlotsPerWeek));
  for (const double v : week) EXPECT_GE(v, 0.0);
}

TEST(SpectralForecast, BeatsSeasonalNaiveOnNoisySeries) {
  // The headline property: harmonic truncation averages noise out, so the
  // spectral forecaster outperforms replaying last week verbatim.
  double spectral_total = 0.0;
  double naive_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto s = tower_series(0.3, seed);
    const auto spectral = spectral_forecast(s.train, s.test.size());
    const auto naive = seasonal_naive_forecast(s.train, s.test.size());
    spectral_total += mean_absolute_error(s.test, spectral);
    naive_total += mean_absolute_error(s.test, naive);
  }
  EXPECT_LT(spectral_total, naive_total);
}

TEST(SpectralForecast, SkillBeatsMeanPredictor) {
  const auto s = tower_series(0.2);
  const auto forecast = spectral_forecast(s.train, s.test.size());
  EXPECT_LT(mae_skill_vs_mean(s.test, forecast), 0.5);
}

TEST(SpectralForecast, PinsTheForecastOfOneTower) {
  // The week after three noisy weeks of one tower: FNV-1a 64 over the
  // forecast's bytes.
  const auto s = tower_series(0.2);
  const auto forecast = spectral_forecast(s.train, s.test.size());
  EXPECT_EQ(fnv1a(forecast.data(), forecast.size() * sizeof(double)),
            0x15219ef329207cf2ull);
}

TEST(SpectralForecast, RequiresOneWeek) {
  EXPECT_THROW(spectral_forecast(std::vector<double>(500), 10), Error);
}

TEST(PatternForecaster, MatchesTheGeneratingTemplate) {
  // Templates: two distinct shapes; history generated from one of them.
  std::vector<std::vector<double>> templates(2);
  for (int s = 0; s < TimeGrid::kSlotsPerWeek; ++s) {
    const double day_phase =
        2.0 * M_PI * (s % TimeGrid::kSlotsPerDay) / TimeGrid::kSlotsPerDay;
    templates[0].push_back(std::cos(day_phase));         // midnight peak
    templates[1].push_back(std::cos(day_phase - M_PI));  // midday peak
  }
  const PatternForecaster forecaster(templates);
  // History: 1 day of the midday-peak shape, scaled and shifted.
  std::vector<double> history;
  for (int s = 0; s < TimeGrid::kSlotsPerDay; ++s)
    history.push_back(100.0 + 40.0 * templates[1][static_cast<std::size_t>(s)]);
  EXPECT_EQ(forecaster.match(history), 1u);
}

TEST(PatternForecaster, ForecastRecoversScaleAndShape) {
  std::vector<std::vector<double>> templates(1);
  for (int s = 0; s < TimeGrid::kSlotsPerWeek; ++s)
    templates[0].push_back(std::sin(2.0 * M_PI * s / TimeGrid::kSlotsPerDay));
  const PatternForecaster forecaster(templates);
  std::vector<double> history;
  for (int s = 0; s < TimeGrid::kSlotsPerDay; ++s)
    history.push_back(50.0 + 10.0 * templates[0][static_cast<std::size_t>(s)]);
  const auto forecast = forecaster.forecast(history, TimeGrid::kSlotsPerDay,
                                            forecaster.match(history));
  // Next day continues the same scaled sinusoid.
  for (int s = 0; s < TimeGrid::kSlotsPerDay; s += 13) {
    const double want =
        50.0 + 10.0 * templates[0][static_cast<std::size_t>(
                          (TimeGrid::kSlotsPerDay + s) %
                          TimeGrid::kSlotsPerWeek)];
    EXPECT_NEAR(forecast[static_cast<std::size_t>(s)], want, 1.0);
  }
}

TEST(PatternForecaster, ColdStartBeatsMeanPredictorOnRealTowers) {
  // Templates learned from canonical profiles; forecast a tower from one
  // day of observations.
  std::vector<std::vector<double>> templates;
  for (const auto r : all_regions()) {
    const auto z = zscore(TrafficProfile::canonical(r).series());
    templates.push_back(std::vector<double>(
        z.begin(), z.begin() + TimeGrid::kSlotsPerWeek));
  }
  const PatternForecaster forecaster(std::move(templates));

  const auto s = tower_series(0.15);
  // Only the first day of the training data is "observed".
  std::vector<double> one_day(s.train.begin(),
                              s.train.begin() + TimeGrid::kSlotsPerDay);
  const auto forecast =
      forecaster.forecast(one_day, TimeGrid::kSlotsPerWeek,
                          forecaster.match(one_day));
  std::vector<double> actual(
      s.train.begin() + TimeGrid::kSlotsPerDay,
      s.train.begin() + TimeGrid::kSlotsPerDay + TimeGrid::kSlotsPerWeek);
  EXPECT_LT(mae_skill_vs_mean(actual, forecast), 0.9);
}

TEST(PatternForecaster, MatchOrPriorSharesTheMatchPathWithEnoughHistory) {
  std::vector<std::vector<double>> templates(2);
  for (int s = 0; s < TimeGrid::kSlotsPerWeek; ++s) {
    const double day_phase =
        2.0 * M_PI * (s % TimeGrid::kSlotsPerDay) / TimeGrid::kSlotsPerDay;
    templates[0].push_back(std::cos(day_phase));
    templates[1].push_back(std::cos(day_phase - M_PI));
  }
  const PatternForecaster forecaster(templates);

  // 100 slots (between half a day and a day): shape matching applies and
  // agrees with match().
  std::vector<double> history;
  for (int s = 0; s < 100; ++s)
    history.push_back(10.0 + 4.0 * templates[1][static_cast<std::size_t>(s)]);
  EXPECT_EQ(forecaster.match_or_prior(history, 0), forecaster.match(history));
  EXPECT_EQ(forecaster.match_or_prior(history, 0), 1u);
}

TEST(PatternForecaster, MatchOrPriorFallsBackBelowHalfADay) {
  std::vector<std::vector<double>> templates = {
      std::vector<double>(TimeGrid::kSlotsPerWeek, 1.0),
      std::vector<double>(TimeGrid::kSlotsPerWeek, -1.0)};
  const PatternForecaster forecaster(templates);

  const std::vector<double> short_history(PatternForecaster::kMinMatchSlots - 1,
                                          5.0);
  EXPECT_EQ(forecaster.match_or_prior(short_history, 1), 1u);
  EXPECT_EQ(forecaster.match_or_prior({}, 0), 0u);
  // The prior must name a real template.
  EXPECT_THROW(forecaster.match_or_prior({}, 2), Error);
}

TEST(PatternForecaster, ConstantHistoryMatchesWithoutNaN) {
  // A constant (zero-variance) history z-scores to the zero vector; the
  // match must stay finite and pick some valid template.
  std::vector<std::vector<double>> templates(2);
  for (int s = 0; s < TimeGrid::kSlotsPerWeek; ++s) {
    templates[0].push_back(std::sin(2.0 * M_PI * s / TimeGrid::kSlotsPerDay));
    templates[1].push_back(static_cast<double>(s % 7));
  }
  const PatternForecaster forecaster(templates);
  const std::vector<double> flat(2 * TimeGrid::kSlotsPerDay, 42.0);
  const auto matched = forecaster.match_or_prior(flat, 0);
  EXPECT_LT(matched, forecaster.template_count());

  const auto forecast =
      forecaster.forecast(flat, TimeGrid::kSlotsPerDay, matched);
  for (const double v : forecast) EXPECT_TRUE(std::isfinite(v));
}

/// match() as a brute force: z-score a history-length copy of every
/// template and take the least squared distance, first index on ties.
std::size_t reference_match(const std::vector<std::vector<double>>& templates,
                             std::span<const double> history) {
  const auto z_history = zscore(history);
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_template = 0;
  for (std::size_t t = 0; t < templates.size(); ++t) {
    std::vector<double> segment;
    for (std::size_t s = 0; s < history.size(); ++s)
      segment.push_back(templates[t][s % TimeGrid::kSlotsPerWeek]);
    const double d = squared_distance(z_history, zscore(segment));
    if (d < best) {
      best = d;
      best_template = t;
    }
  }
  return best_template;
}

TEST(PatternForecaster, MatchAgreesWithTheBruteForceOnTowerHistories) {
  // Templates: the canonical profiles' z-scored weeks, plus two shapes
  // close to the resident one so that near-ties are exercised.
  std::vector<std::vector<double>> templates;
  for (const auto r : all_regions()) {
    const auto z = zscore(TrafficProfile::canonical(r).series());
    templates.emplace_back(z.begin(), z.begin() + TimeGrid::kSlotsPerWeek);
  }
  for (const double eps : {1e-3, 1e-9}) {
    auto near = templates.front();
    for (std::size_t s = 0; s < near.size(); ++s)
      near[s] += eps * std::sin(static_cast<double>(s));
    templates.push_back(std::move(near));
  }
  const PatternForecaster forecaster(templates);

  const auto city = CityModel::create_default();
  DeploymentOptions deployment;
  deployment.n_towers = 40;
  const auto towers = deploy_towers(city, deployment);
  const auto intensity = IntensityModel::create(towers, IntensityOptions{});
  Rng rng(11);
  std::size_t compared = 0;
  for (std::size_t tower = 0; tower < towers.size(); ++tower) {
    const auto series = intensity.sample_series(tower, rng);
    for (const std::size_t length :
         {std::size_t{72}, std::size_t{73}, std::size_t{100},
          std::size_t{TimeGrid::kSlotsPerDay}, std::size_t{500},
          std::size_t{1007}, std::size_t{1008}, std::size_t{1009},
          std::size_t{2000}, std::size_t{3025}, series.size()}) {
      const std::span<const double> history(series.data(), length);
      ASSERT_EQ(forecaster.match(history), reference_match(templates, history))
          << "tower " << tower << ", " << length << " slots";
      ++compared;
    }
  }
  EXPECT_EQ(compared, towers.size() * 11);
}

TEST(PatternForecaster, MatchKeepsTheZeroVarianceCases) {
  // Constant templates and constant histories z-score to zeros: a flat
  // history is equally far from every varying template (first wins), and
  // a template flat over the covered slots is nearest to a flat history.
  std::vector<std::vector<double>> templates(3);
  for (int s = 0; s < TimeGrid::kSlotsPerWeek; ++s) {
    const double day_phase =
        2.0 * M_PI * (s % TimeGrid::kSlotsPerDay) / TimeGrid::kSlotsPerDay;
    templates[0].push_back(std::cos(day_phase));
    templates[1].push_back(s < 200 ? 0.3 : std::sin(day_phase));
    templates[2].push_back(std::cos(day_phase - M_PI));
  }
  const PatternForecaster forecaster(templates);
  const std::vector<double> flat(150, 7.0);
  EXPECT_EQ(forecaster.match(flat), 1u);
  EXPECT_EQ(forecaster.match(std::vector<double>(300, 7.0)), 0u);
  // A varying history is far from the flat stretch and near its shape.
  std::vector<double> midday;
  for (int s = 0; s < 150; ++s)
    midday.push_back(5.0 + templates[2][static_cast<std::size_t>(s)]);
  EXPECT_EQ(forecaster.match(midday), 2u);
  EXPECT_EQ(reference_match(templates, midday), 2u);
}

TEST(PatternForecaster, ValidatesInput) {
  EXPECT_THROW(PatternForecaster({}), Error);
  EXPECT_THROW(PatternForecaster({{1.0, 2.0}}), Error);
  std::vector<std::vector<double>> templates = {
      std::vector<double>(TimeGrid::kSlotsPerWeek, 1.0)};
  const PatternForecaster forecaster(templates);
  EXPECT_THROW(forecaster.match(std::vector<double>(10)), Error);
  // forecast() takes match()'s history floor, and like match_or_prior's
  // prior, its template index must name a real template.
  const std::vector<double> day(TimeGrid::kSlotsPerDay, 3.0);
  EXPECT_EQ(forecaster.forecast(day, 10, 0).size(), 10u);
  EXPECT_THROW(forecaster.forecast(day, 10, forecaster.template_count()),
               Error);
  EXPECT_THROW(forecaster.forecast(std::vector<double>(10), 10, 0), Error);
}

}  // namespace
}  // namespace cellscope
