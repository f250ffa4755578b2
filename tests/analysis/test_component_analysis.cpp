#include "analysis/component_analysis.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace cellscope {
namespace {

using Feature = std::array<double, 3>;

/// Two dense clusters in feature space (spread a third of
/// kDensityRadius): one around the origin, one around (10, 0, 0).
struct Setup {
  std::vector<Feature> features;
  std::vector<int> labels;
};

Setup make_setup() {
  Setup s;
  Rng rng(1);
  const double spread = kDensityRadius / 3.0;
  // Cluster 0 around origin.
  for (int i = 0; i < 20; ++i) {
    s.features.push_back({rng.normal(0.0, spread), rng.normal(0.0, spread),
                          rng.normal(0.0, spread)});
    s.labels.push_back(0);
  }
  // Cluster 1 around (10, 0, 0).
  for (int i = 0; i < 20; ++i) {
    s.features.push_back({10.0 + rng.normal(0.0, spread),
                          rng.normal(0.0, spread), rng.normal(0.0, spread)});
    s.labels.push_back(1);
  }
  return s;
}

TEST(Representative, PicksTheFarthestDensePoint) {
  auto s = make_setup();
  // A small dense knot of cluster-0 points farther from cluster 1 than
  // the origin knot: each has kMinNeighbors + 1 neighbors within
  // kDensityRadius.
  for (std::size_t i = 0; i < kMinNeighbors + 2; ++i) {
    s.features.push_back({-5.0 + 0.1 * kDensityRadius * i, 0.0, 0.0});
    s.labels.push_back(0);
  }
  const auto rep = find_representative(s.features, s.labels, 0);
  // Must be one of the knot points at x = -5.
  EXPECT_LT(s.features[rep][0], -4.0);
}

TEST(Representative, RejectsIsolatedOutliers) {
  auto s = make_setup();
  // A lone cluster-0 outlier even farther from cluster 1 — but with no
  // neighbors, it is a noise point and must not be chosen.
  s.features.push_back({-50.0, 0.0, 0.0});
  s.labels.push_back(0);
  const auto rep = find_representative(s.features, s.labels, 0);
  EXPECT_GT(s.features[rep][0], -1.0);  // stayed with the dense knot
}

TEST(Representative, FallsBackWhenEverythingIsSparse) {
  // Three points, each far more than kDensityRadius from the others;
  // nothing passes the density test, so the fallback picks the farthest
  // point regardless.
  std::vector<Feature> features = {
      {0.0, 0.0, 0.0}, {100.0, 0.0, 0.0}, {-100.0, 0.0, 0.0}};
  std::vector<int> labels = {0, 1, 0};
  const auto rep = find_representative(features, labels, 0);
  EXPECT_EQ(rep, 2u);  // (-100,0,0) is farthest from cluster 1
}

TEST(Representative, ValidatesInput) {
  std::vector<Feature> features = {{0.0, 0.0, 0.0}};
  EXPECT_THROW(find_representative(features, {0}, 0), Error);  // no others
  EXPECT_THROW(find_representative(features, {0, 1}, 0), Error);
  EXPECT_THROW(find_representative({}, {}, 0), Error);
}

TEST(Decompose, RecoversKnownMixture) {
  const std::array<Feature, 4> primaries = {
      Feature{1.0, 0.0, 0.0}, Feature{0.0, 1.0, 0.0},
      Feature{0.0, 0.0, 1.0}, Feature{1.0, 1.0, 1.0}};
  const std::array<double, 4> weights = {0.4, 0.3, 0.2, 0.1};
  Feature target{};
  for (int i = 0; i < 4; ++i)
    for (int d = 0; d < 3; ++d) target[d] += weights[i] * primaries[i][d];
  const auto decomposition = decompose_feature(target, primaries);
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(decomposition.coefficients[i], weights[i], 1e-6);
  EXPECT_NEAR(decomposition.residual, 0.0, 1e-9);
}

TEST(Decompose, CoefficientsAreConvex) {
  Rng rng(2);
  const std::array<Feature, 4> primaries = {
      Feature{1.0, 2.0, 0.5}, Feature{0.2, 1.0, 1.5},
      Feature{2.0, 0.3, 0.3}, Feature{0.5, 0.5, 2.0}};
  for (int trial = 0; trial < 30; ++trial) {
    const Feature target{rng.normal(1.0, 2.0), rng.normal(1.0, 2.0),
                         rng.normal(1.0, 2.0)};
    const auto d = decompose_feature(target, primaries);
    double total = 0.0;
    for (const double c : d.coefficients) {
      EXPECT_GE(c, -1e-9);
      total += c;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Decompose, OutsidePolygonReportsResidual) {
  const std::array<Feature, 4> primaries = {
      Feature{0.0, 0.0, 0.0}, Feature{1.0, 0.0, 0.0},
      Feature{0.0, 1.0, 0.0}, Feature{0.0, 0.0, 1.0}};
  const Feature target{5.0, 5.0, 5.0};  // far outside
  const auto d = decompose_feature(target, primaries);
  EXPECT_GT(d.residual, 1.0);
}

TEST(CombineSeries, WeightedSum) {
  std::array<std::vector<double>, 4> series;
  for (int i = 0; i < 4; ++i) series[i].assign(10, static_cast<double>(i));
  const std::array<double, 4> coefficients = {0.1, 0.2, 0.3, 0.4};
  const auto combined = combine_series(coefficients, series);
  // 0.1*0 + 0.2*1 + 0.3*2 + 0.4*3 = 2.0
  for (const double v : combined) EXPECT_NEAR(v, 2.0, 1e-12);
}

TEST(CombineSeries, ZeroWeightSkipsComponent) {
  std::array<std::vector<double>, 4> series;
  for (int i = 0; i < 4; ++i) series[i].assign(5, 1.0);
  const std::array<double, 4> coefficients = {1.0, 0.0, 0.0, 0.0};
  const auto combined = combine_series(coefficients, series);
  for (const double v : combined) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(CombineSeries, LengthMismatchThrows) {
  std::array<std::vector<double>, 4> series;
  for (int i = 0; i < 4; ++i) series[i].assign(5, 1.0);
  series[2].pop_back();
  EXPECT_THROW(combine_series({0.25, 0.25, 0.25, 0.25}, series), Error);
}

}  // namespace
}  // namespace cellscope
