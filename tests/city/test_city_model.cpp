#include "city/city_model.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace cellscope {
namespace {

TEST(CityModel, DefaultModelIsDeterministic) {
  const auto a = CityModel::create_default(7);
  const auto b = CityModel::create_default(7);
  for (const auto r : all_regions()) {
    ASSERT_EQ(a.hotspots(r).size(), b.hotspots(r).size());
    for (std::size_t i = 0; i < a.hotspots(r).size(); ++i) {
      EXPECT_DOUBLE_EQ(a.hotspots(r)[i].center.lat,
                       b.hotspots(r)[i].center.lat);
      EXPECT_DOUBLE_EQ(a.hotspots(r)[i].weight, b.hotspots(r)[i].weight);
    }
  }
}

TEST(CityModel, IntensityPeaksAtHotspotCenters) {
  const auto city = CityModel::create_default();
  for (const auto r :
       {FunctionalRegion::kOffice, FunctionalRegion::kResident}) {
    const auto& spot = city.hotspots(r).front();
    const double at_center = city.intensity(r, spot.center);
    LatLon far = spot.center;
    far.lat += 0.2;
    EXPECT_GT(at_center, city.intensity(r, far));
  }
}

TEST(CityModel, IntensityIsNonNegativeEverywhere) {
  const auto city = CityModel::create_default();
  Rng rng(3);
  const auto box = city.box();
  for (int i = 0; i < 200; ++i) {
    const LatLon p{rng.uniform(box.lat_min, box.lat_max),
                   rng.uniform(box.lon_min, box.lon_max)};
    for (const auto r : all_regions()) EXPECT_GE(city.intensity(r, p), 0.0);
  }
}

TEST(CityModel, SampledLocationsStayInTheBox) {
  const auto city = CityModel::create_default();
  Rng rng(5);
  for (const auto r : all_regions()) {
    for (int i = 0; i < 100; ++i)
      EXPECT_TRUE(city.box().contains(city.sample_location(r, rng)));
  }
}

TEST(CityModel, SampledLocationsConcentrateNearHotspots) {
  const auto city = CityModel::create_default();
  Rng rng(11);
  // Office towers should be much closer to office hotspots than random
  // points are.
  double total_km = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const auto p = city.sample_location(FunctionalRegion::kOffice, rng);
    double best = 1e18;
    for (const auto& h : city.hotspots(FunctionalRegion::kOffice))
      best = std::min(best, haversine_km(h.center, p));
    total_km += best;
  }
  EXPECT_LT(total_km / n, 5.0);  // hotspot sigma is ~2 km
}

TEST(CityModel, RegionAtHotspotCenterIsItsFunction) {
  const auto city = CityModel::create_default();
  const auto& office = city.hotspots(FunctionalRegion::kOffice).front();
  EXPECT_EQ(city.region_at(office.center), FunctionalRegion::kOffice);
}

TEST(CityModel, RegionAtBalancedMidpointIsComprehensive) {
  // Construct a city with two equal-strength hotspots of different
  // functions; their midpoint has no dominant function.
  const auto box = shanghai_bbox();
  const LatLon c = box.center();
  std::vector<std::vector<Hotspot>> spots(kNumRegions);
  spots[static_cast<int>(FunctionalRegion::kResident)] = {
      {{c.lat, c.lon - 0.05}, 3.0, 1.0}};
  spots[static_cast<int>(FunctionalRegion::kOffice)] = {
      {{c.lat, c.lon + 0.05}, 3.0, 1.0}};
  spots[static_cast<int>(FunctionalRegion::kTransport)] = {
      {{box.lat_min, box.lon_min}, 0.1, 1e-6}};
  spots[static_cast<int>(FunctionalRegion::kEntertainment)] = {
      {{box.lat_min, box.lon_max}, 0.1, 1e-6}};
  spots[static_cast<int>(FunctionalRegion::kComprehensive)] = {{c, 10.0, 1.0}};
  const CityModel city(box, spots);
  EXPECT_EQ(city.region_at(c), FunctionalRegion::kComprehensive);
  // Near the resident hotspot the resident function dominates.
  EXPECT_EQ(city.region_at({c.lat, c.lon - 0.05}),
            FunctionalRegion::kResident);
}

TEST(CityModel, ConstructionValidatesShape) {
  EXPECT_THROW(CityModel(shanghai_bbox(), {}), Error);
  std::vector<std::vector<Hotspot>> empty_sets(kNumRegions);
  EXPECT_THROW(CityModel(shanghai_bbox(), empty_sets), Error);
}

}  // namespace
}  // namespace cellscope
