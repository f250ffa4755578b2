#include "geo/spatial_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"

#include "common/rng.h"

namespace cellscope {
namespace {

BoundingBox test_box() { return {31.0, 31.2, 121.0, 121.2}; }

std::vector<LatLon> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto box = test_box();
  std::vector<LatLon> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    points.push_back({rng.uniform(box.lat_min, box.lat_max),
                      rng.uniform(box.lon_min, box.lon_max)});
  return points;
}

/// Oracle: brute-force radius query.
std::vector<std::size_t> brute_force(const std::vector<LatLon>& points,
                                     const LatLon& center, double radius_m) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (haversine_m(points[i], center) <= radius_m) out.push_back(i);
  return out;
}

TEST(SpatialIndex, MatchesBruteForceOracle) {
  const auto points = random_points(500, 42);
  const SpatialIndex index(test_box(), points);
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const LatLon center{rng.uniform(31.0, 31.2), rng.uniform(121.0, 121.2)};
    const double radius = rng.uniform(50.0, 3000.0);
    EXPECT_EQ(index.query_radius(center, radius),
              brute_force(points, center, radius))
        << "trial " << trial;
  }
}

TEST(SpatialIndex, ZeroRadiusFindsOnlyCoincidentPoints) {
  const std::vector<LatLon> points = {{31.1, 121.1}, {31.15, 121.15}};
  const SpatialIndex index(test_box(), points);
  const auto hits = index.query_radius({31.1, 121.1}, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
}

TEST(SpatialIndex, CountMatchesQuerySize) {
  const auto points = random_points(200, 1);
  const SpatialIndex index(test_box(), points);
  const LatLon center{31.1, 121.1};
  EXPECT_EQ(index.count_radius(center, 1000.0),
            index.query_radius(center, 1000.0).size());
}

TEST(SpatialIndex, EmptyIndexQueriesReturnNothing) {
  const SpatialIndex index(test_box(), {});
  EXPECT_TRUE(index.query_radius({31.1, 121.1}, 1e6).empty());
}

TEST(SpatialIndex, PointsOutsideBoxAreClampedButQueryable) {
  const std::vector<LatLon> points = {{35.0, 121.1}};  // way north
  const SpatialIndex index(test_box(), points);
  // Clamped to the north edge.
  EXPECT_EQ(index.count_radius({31.2, 121.1}, 100.0), 1u);
}

TEST(SpatialIndex, ResultsAreSorted) {
  const auto points = random_points(400, 21);
  const SpatialIndex index(test_box(), points);
  const auto hits = index.query_radius({31.1, 121.1}, 5000.0);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
}

TEST(SpatialIndex, RejectsNegativeRadius) {
  const SpatialIndex index(test_box(), random_points(10, 2));
  EXPECT_THROW(index.query_radius({31.1, 121.1}, -1.0), Error);
}

// Parameterized: the oracle property holds across cell sizes.
class SpatialIndexCellSize : public ::testing::TestWithParam<double> {};

TEST_P(SpatialIndexCellSize, OracleHoldsForAnyBucketGranularity) {
  const auto points = random_points(300, 5);
  const SpatialIndex index(test_box(), points, GetParam());
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const LatLon center{rng.uniform(31.0, 31.2), rng.uniform(121.0, 121.2)};
    const double radius = rng.uniform(100.0, 5000.0);
    EXPECT_EQ(index.query_radius(center, radius),
              brute_force(points, center, radius));
  }
}

INSTANTIATE_TEST_SUITE_P(CellSizes, SpatialIndexCellSize,
                         ::testing::Values(0.1, 0.25, 0.5, 1.0, 5.0, 50.0));

}  // namespace
}  // namespace cellscope
