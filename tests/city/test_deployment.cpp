#include "city/deployment.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "geo/address_codec.h"
#include "support/oracles.h"

namespace cellscope {
namespace {

TEST(Deployment, ProducesRequestedTowerCount) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = 137;
  const auto towers = deploy_towers(city, options);
  EXPECT_EQ(towers.size(), 137u);
}

TEST(Deployment, IdsAreDenseAndUnique) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = 100;
  const auto towers = deploy_towers(city, options);
  std::set<std::uint32_t> ids;
  for (const auto& t : towers) ids.insert(t.id);
  EXPECT_EQ(ids.size(), 100u);
  EXPECT_EQ(*ids.begin(), 0u);
  EXPECT_EQ(*ids.rbegin(), 99u);
}

TEST(Deployment, IdsMatchVectorOrder) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = 50;
  const auto towers = deploy_towers(city, options);
  for (std::size_t i = 0; i < towers.size(); ++i)
    EXPECT_EQ(towers[i].id, static_cast<std::uint32_t>(i));
}

TEST(Deployment, RegionSharesMatchTable1Exactly) {
  // Largest-remainder quota allocation: shares must match the mixture to
  // within one tower.
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = 2000;
  const auto towers = deploy_towers(city, options);
  const auto histogram = region_histogram(towers);
  const auto mix = table1_region_mix();
  for (int r = 0; r < kNumRegions; ++r) {
    const double expected = 2000.0 * mix[r];
    EXPECT_NEAR(static_cast<double>(histogram[r]), expected, 1.0)
        << region_name(static_cast<FunctionalRegion>(r));
  }
}

TEST(Deployment, IsDeterministicInSeed) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = 60;
  const auto a = deploy_towers(city, options);
  const auto b = deploy_towers(city, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].position.lat, b[i].position.lat);
    EXPECT_EQ(a[i].true_region, b[i].true_region);
    EXPECT_EQ(a[i].address, b[i].address);
  }
}

TEST(Deployment, DifferentSeedsGiveDifferentLayouts) {
  const auto city = CityModel::create_default();
  DeploymentOptions a_options;
  a_options.n_towers = 60;
  DeploymentOptions b_options;
  b_options.n_towers = 60;
  b_options.seed = a_options.seed + 1;
  const auto a = deploy_towers(city, a_options);
  const auto b = deploy_towers(city, b_options);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].position.lat == b[i].position.lat) ++same;
  EXPECT_LT(same, 5);
}

TEST(Deployment, AddressesGeocodeBackToPositions) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = 40;
  const auto towers = deploy_towers(city, options);
  const AddressCodec codec(city.box());
  for (const auto& t : towers) {
    const auto resolved = codec.decode(t.address);
    ASSERT_TRUE(resolved.has_value());
    EXPECT_LT(haversine_m(t.position, *resolved), 15.0);
  }
}

TEST(Deployment, PositionsAreInsideTheCity) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = 200;
  for (const auto& t : deploy_towers(city, options))
    EXPECT_TRUE(city.box().contains(t.position));
}

TEST(Deployment, IdCarriesNoRegionInformation) {
  // After shuffling, the first towers should not all share a region.
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = 500;
  const auto towers = deploy_towers(city, options);
  std::set<FunctionalRegion> first_regions;
  for (std::size_t i = 0; i < 30; ++i)
    first_regions.insert(towers[i].true_region);
  EXPECT_GE(first_regions.size(), 3u);
}

TEST(Deployment, RejectsInvalidOptions) {
  const auto city = CityModel::create_default();
  DeploymentOptions zero;
  zero.n_towers = 0;
  EXPECT_THROW(deploy_towers(city, zero), Error);
  DeploymentOptions bad_mix;
  bad_mix.region_mix = {0, 0, 0, 0, 0};
  EXPECT_THROW(deploy_towers(city, bad_mix), Error);
}

TEST(Deployment, CustomMixIsRespected) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = 100;
  options.region_mix = {1.0, 0.0, 0.0, 0.0, 0.0};  // all resident
  const auto towers = deploy_towers(city, options);
  for (const auto& t : towers)
    EXPECT_EQ(t.true_region, FunctionalRegion::kResident);
}

}  // namespace
}  // namespace cellscope
