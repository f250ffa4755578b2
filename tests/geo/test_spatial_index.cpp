#include "geo/spatial_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

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

TEST(SpatialIndex, FindsHitsJustInsideTheRadiusAcrossACellEdge) {
  // At 0.4 km cells this box has 55 rows and 47 columns. Each point lies
  // just past a cell edge from its center, 199.93 m away due north or
  // due east: inside 200 m, but beyond a search box sized at 111.32 km
  // per degree rather than haversine_m's 111.195.
  const BoundingBox box = test_box();
  const double north_edge = 31.0 + 20 * (0.2 / 55);
  const double east_edge = 121.0 + 20 * (0.2 / 47);
  const std::vector<std::pair<LatLon, LatLon>> cases = {
      {{north_edge - 0.0017970, 121.1}, {north_edge + 1e-6, 121.1}},
      {{31.1, east_edge - 0.0020987}, {31.1, east_edge + 1e-6}},
  };
  for (const auto& [center, point] : cases) {
    ASSERT_LT(haversine_m(center, point), 200.0);
    ASSERT_GT(haversine_m(center, point), 199.9);
    const SpatialIndex index(box, {point}, 0.4);
    EXPECT_EQ(index.count_radius(center, 200.0), 1u)
        << "center=(" << center.lat << ", " << center.lon << ")";
  }
}

/// The point `distance_m` from `origin` at `bearing` radians clockwise
/// from north, on haversine_m's sphere (the direct geodesic problem).
LatLon destination(const LatLon& origin, double bearing, double distance_m) {
  constexpr double kRad = std::numbers::pi / 180.0;
  const double phi = origin.lat * kRad;
  const double delta = distance_m / kEarthRadiusM;
  const double phi2 = std::asin(std::sin(phi) * std::cos(delta) +
                                std::cos(phi) * std::sin(delta) *
                                    std::cos(bearing));
  const double dlambda =
      std::atan2(std::sin(bearing) * std::sin(delta) * std::cos(phi),
                 std::cos(delta) - std::sin(phi) * std::sin(phi2));
  return {phi2 / kRad, origin.lon + dlambda / kRad};
}

TEST(SpatialIndex, PlanarDistanceStaysWithinTheDocumentedBound) {
  // Bearings every degree and distances across [r − 2ε, r + 2ε] at both
  // latitude edges of the city box: the tangent-plane distance is within
  // planar_error_bound_m of haversine_m, and the bound is below ε.
  constexpr double kRadius = 200.0;
  const BoundingBox box = shanghai_bbox();
  for (const double lat : {box.lat_min, box.lat_max}) {
    const LatLon center{lat, box.center().lon};
    const TangentPlane plane(center);
    const double slack = planar_slack_m(kRadius, lat);
    ASSERT_GE(slack, 1.0);
    ASSERT_LT(slack, 1.01);
    for (int deg = 0; deg < 360; ++deg) {
      const double bearing = deg * std::numbers::pi / 180.0;
      for (int step = 0; step <= 40; ++step) {
        const double d = kRadius - 2 * slack + step * (4 * slack / 40);
        const LatLon p = destination(center, bearing, d);
        const double exact = haversine_m(center, p);
        const double bound = planar_error_bound_m(exact, lat);
        EXPECT_LE(std::abs(std::sqrt(plane.distance2_m2(p)) - exact), bound)
            << "lat=" << lat << " bearing=" << deg << " d=" << d;
        EXPECT_LT(bound, slack / 2);
      }
    }
  }
}

TEST(SpatialIndex, CountsPointsOnAndAroundTheRadiusAsBruteForceDoes) {
  // Points exactly on r, a millimeter and a micrometer either side of it,
  // and on either edge of the ε shell, at eight bearings: the index counts
  // each the way haversine_m alone does.
  constexpr double kRadius = 200.0;
  const BoundingBox box = shanghai_bbox();
  for (const double lat : {box.lat_min + 0.01, box.lat_max - 0.01}) {
    const LatLon center{lat, box.center().lon};
    const double slack = planar_slack_m(kRadius, lat);
    std::vector<LatLon> points;
    for (int k = 0; k < 8; ++k) {
      const double bearing = k * std::numbers::pi / 4 + 0.1;
      for (const double d :
           {kRadius, kRadius - 1e-3, kRadius + 1e-3, kRadius - 1e-6,
            kRadius + 1e-6, kRadius - slack, kRadius + slack})
        points.push_back(destination(center, bearing, d));
    }
    const SpatialIndex index(box, points, 0.4);
    const auto expected = brute_force(points, center, kRadius);
    EXPECT_EQ(index.query_radius(center, kRadius), expected) << "lat=" << lat;
    EXPECT_EQ(index.count_radius(center, kRadius), expected.size());
    // Three of the seven distances lie inside by construction.
    EXPECT_GE(expected.size(), 8u * 3);
  }
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
