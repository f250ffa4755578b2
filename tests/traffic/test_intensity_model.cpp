#include "traffic/intensity_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "city/deployment.h"
#include "common/error.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "support/oracles.h"

namespace cellscope {
namespace {

std::vector<Tower> make_towers(std::size_t n, std::uint64_t seed = 42) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = n;
  options.seed = seed;
  return deploy_towers(city, options);
}

TEST(IntensityModel, MixturesAreOnTheSimplex) {
  const auto towers = make_towers(200);
  const auto model = IntensityModel::create(towers, IntensityOptions{});
  for (const auto& t : towers) {
    const auto& m = model.model(t.id);
    double total = 0.0;
    for (const double w : m.mixture) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(IntensityModel, PureTowersConcentrateOnOwnProfile) {
  const auto towers = make_towers(300);
  const auto model = IntensityModel::create(towers, IntensityOptions{});
  for (const auto& t : towers) {
    if (t.true_region == FunctionalRegion::kComprehensive) continue;
    const auto& m = model.model(t.id);
    EXPECT_GE(m.mixture[static_cast<int>(t.true_region)],
              1.0 - kPurityLeak - 1e-9);
  }
}

TEST(IntensityModel, ComprehensiveTowersAreGenuinelyMixed) {
  const auto towers = make_towers(400);
  const auto model = IntensityModel::create(towers, IntensityOptions{});
  for (const auto& t : towers) {
    if (t.true_region != FunctionalRegion::kComprehensive) continue;
    const auto& m = model.model(t.id);
    // No single component should fully dominate a comprehensive tower.
    for (const double w : m.mixture) EXPECT_LT(w, 0.9);
  }
}

TEST(IntensityModel, ExpectedSeriesIsDeterministic) {
  const auto towers = make_towers(50);
  const auto model = IntensityModel::create(towers, IntensityOptions{});
  EXPECT_EQ(model.expected_series(3), model.expected_series(3));
}

TEST(IntensityModel, ExpectedSeriesIsPositiveAndGridLength) {
  const auto towers = make_towers(50);
  const auto model = IntensityModel::create(towers, IntensityOptions{});
  for (const auto& t : towers) {
    const auto series = model.expected_series(t.id);
    ASSERT_EQ(series.size(), TimeGrid::kSlots);
    for (const double v : series) EXPECT_GT(v, 0.0);
  }
}

TEST(IntensityModel, SampleSeriesHasMeanNearExpected) {
  const auto towers = make_towers(30);
  const auto model = IntensityModel::create(towers, IntensityOptions{});
  Rng rng(5);
  const auto expected = model.expected_series(0);
  std::vector<double> accumulated(TimeGrid::kSlots, 0.0);
  const int n_samples = 30;
  for (int i = 0; i < n_samples; ++i) {
    const auto sample = model.sample_series(0, rng);
    for (std::size_t s = 0; s < sample.size(); ++s)
      accumulated[s] += sample[s];
  }
  // Mean over samples ≈ expected (multiplicative noise has mean 1).
  const double total_expected = sum(expected);
  const double total_sampled = sum(accumulated) / n_samples;
  EXPECT_NEAR(total_sampled / total_expected, 1.0, 0.02);
}

TEST(IntensityModel, NoiseCvControlsDispersion) {
  const auto towers = make_towers(20);
  IntensityOptions quiet;
  quiet.noise_cv = 0.0;
  IntensityOptions loud;
  loud.noise_cv = 0.5;
  const auto quiet_model = IntensityModel::create(towers, quiet);
  const auto loud_model = IntensityModel::create(towers, loud);
  Rng rng1(1);
  Rng rng2(1);
  const auto quiet_sample = quiet_model.sample_series(0, rng1);
  const auto expected = quiet_model.expected_series(0);
  // cv=0: sample equals expectation exactly.
  for (std::size_t s = 0; s < expected.size(); s += 37)
    EXPECT_DOUBLE_EQ(quiet_sample[s], expected[s]);
  // cv=0.5: relative deviations are large somewhere.
  const auto loud_sample = loud_model.sample_series(0, rng2);
  const auto loud_expected = loud_model.expected_series(0);
  double max_rel = 0.0;
  for (std::size_t s = 0; s < loud_sample.size(); ++s)
    max_rel = std::max(max_rel, std::fabs(loud_sample[s] / loud_expected[s] - 1.0));
  EXPECT_GT(max_rel, 0.3);
}

TEST(IntensityModel, ClusterAggregatePeaksNearTable4) {
  // Per-tower scales are calibrated so cluster aggregates land near the
  // published Table 4 peaks (up to lognormal dispersion).
  const auto towers = make_towers(1000);
  const auto model = IntensityModel::create(towers, IntensityOptions{});
  std::array<std::vector<double>, kNumRegions> aggregate;
  for (auto& a : aggregate) a.assign(TimeGrid::kSlots, 0.0);
  for (const auto& t : towers) {
    const auto series = model.expected_series(t.id);
    auto& agg = aggregate[static_cast<int>(t.true_region)];
    for (std::size_t s = 0; s < series.size(); ++s) agg[s] += series[s];
  }
  EXPECT_NEAR(
      max_value(aggregate[static_cast<int>(FunctionalRegion::kResident)]),
      7.77e8, 2.5e8);
  EXPECT_NEAR(
      max_value(aggregate[static_cast<int>(FunctionalRegion::kOffice)]),
      4.69e8, 2.0e8);
}

TEST(IntensityModel, MixturesAccessorMatchesPerTowerModels) {
  const auto towers = make_towers(60);
  const auto model = IntensityModel::create(towers, IntensityOptions{});
  const auto mixtures = model.mixtures();
  ASSERT_EQ(mixtures.size(), towers.size());
  for (const auto& t : towers)
    EXPECT_EQ(mixtures[t.id], model.model(t.id).mixture);
}

TEST(IntensityModel, InvalidIdThrows) {
  const auto towers = make_towers(10);
  const auto model = IntensityModel::create(towers, IntensityOptions{});
  EXPECT_THROW(model.model(10), Error);
  EXPECT_THROW(model.expected_series(10), Error);
}

TEST(IntensityModel, InvalidOptionsThrow) {
  EXPECT_THROW(IntensityModel::create({}, IntensityOptions{}), Error);
}

TEST(IntensityModel, PinsTheTwoHundredTowerCity) {
  // The latent models of the 200-tower city of seed 2015: FNV-1a 64 over
  // each tower's mixture and scale, in tower-id order.
  ExperimentConfig config;
  config.seed = 2015;
  config.n_towers = 200;
  const CityRecipe recipe = city_recipe(config);
  const auto city = CityModel::create_default(recipe.city_seed);
  const auto towers = deploy_towers(city, recipe.deployment);
  const auto model = IntensityModel::create(towers, recipe.intensity);
  std::uint64_t hash = kFnv1aBasis;
  for (std::uint32_t id = 0; id < model.size(); ++id) {
    const auto& m = model.model(id);
    hash = fnv1a(m.mixture.data(), sizeof m.mixture, hash);
    hash = fnv1a(&m.scale, sizeof m.scale, hash);
  }
  EXPECT_EQ(hash, 0x637faedef53cadbcull);
}

}  // namespace
}  // namespace cellscope
