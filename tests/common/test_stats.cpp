#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace cellscope {
namespace {

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(variance(v), 1.25);
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(1.25));
}

TEST(Stats, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), Error);
  EXPECT_THROW(variance(empty), Error);
  EXPECT_THROW(max_value(empty), Error);
  EXPECT_THROW(argmin(empty), Error);
  EXPECT_THROW(argmax(empty), Error);
  EXPECT_THROW(quantile(empty, 0.5), Error);
}

TEST(Stats, MinMaxArg) {
  const std::vector<double> v = {3, -1, 4, -1, 5};
  EXPECT_DOUBLE_EQ(max_value(v), 5.0);
  EXPECT_EQ(argmin(v), 1u);  // first of the ties
  EXPECT_EQ(argmax(v), 4u);
}

TEST(Stats, SumOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(sum(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(sum(std::vector<double>{1.5, 2.5}), 4.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_THROW(quantile(v, 1.5), Error);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Stats, PearsonOfConstantThrows) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> c = {5, 5, 5};
  EXPECT_THROW(pearson(a, c), Error);
}

TEST(Stats, ZscoreHasZeroMeanUnitVariance) {
  Rng rng(1);
  std::vector<double> v(500);
  for (auto& x : v) x = rng.uniform(10.0, 50.0);
  const auto z = zscore(v);
  EXPECT_NEAR(mean(z), 0.0, 1e-12);
  EXPECT_NEAR(stddev(z), 1.0, 1e-12);
}

TEST(Stats, ZscoreOfConstantIsZeros) {
  const std::vector<double> v = {7, 7, 7};
  for (const double x : zscore(v)) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(Stats, ZscorePreservesOrdering) {
  const std::vector<double> v = {3, 1, 2};
  const auto z = zscore(v);
  EXPECT_GT(z[0], z[2]);
  EXPECT_GT(z[2], z[1]);
}

TEST(Stats, MaxNormalizeDividesByPeak) {
  const std::vector<double> v = {2, 8, 4};
  const auto m = max_normalize(v);
  EXPECT_DOUBLE_EQ(m[0], 0.25);
  EXPECT_DOUBLE_EQ(m[1], 1.0);
  EXPECT_DOUBLE_EQ(m[2], 0.5);
}

TEST(Stats, MaxNormalizeOfNonPositiveIsZeros) {
  for (const double x : max_normalize(std::vector<double>{-1, 0})) {
    EXPECT_DOUBLE_EQ(x, 0.0);
  }
}

TEST(Stats, EmpiricalCdfIsMonotoneAndReachesOne) {
  Rng rng(2);
  std::vector<double> v(200);
  for (auto& x : v) x = rng.normal();
  const auto cdf = empirical_cdf(v, 50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].second, cdf[i].second);
    EXPECT_LT(cdf[i - 1].first, cdf[i].first);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Stats, CircularMovingAverageOfConstantIsConstant) {
  const std::vector<double> v(24, 3.5);
  for (const double x : circular_moving_average(v, 2))
    EXPECT_DOUBLE_EQ(x, 3.5);
}

TEST(Stats, CircularMovingAverageWrapsAround) {
  std::vector<double> v(10, 0.0);
  v[0] = 10.0;
  const auto smooth = circular_moving_average(v, 1);
  // The spike leaks into both circular neighbors.
  EXPECT_NEAR(smooth[1], 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(smooth[9], 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(smooth[5], 0.0, 1e-12);
}

TEST(Stats, EuclideanDistance) {
  const std::vector<double> a = {0, 0};
  const std::vector<double> b = {3, 4};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(Stats, DistanceRequiresEqualLengths) {
  const std::vector<double> a = {0, 0};
  const std::vector<double> b = {1};
  EXPECT_THROW(euclidean_distance(a, b), Error);
}

// Property sweep: zscore invariance to affine transforms of the input.
class ZscoreAffineInvariance
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(ZscoreAffineInvariance, ShiftAndPositiveScaleLeaveZscoreUnchanged) {
  const auto [shift, scale] = GetParam();
  Rng rng(99);
  std::vector<double> v(300);
  for (auto& x : v) x = rng.normal(5.0, 3.0);
  std::vector<double> transformed(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    transformed[i] = v[i] * scale + shift;
  const auto z1 = zscore(v);
  const auto z2 = zscore(transformed);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_NEAR(z1[i], z2[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AffineParams, ZscoreAffineInvariance,
    ::testing::Values(std::make_pair(0.0, 2.0), std::make_pair(100.0, 1.0),
                      std::make_pair(-50.0, 0.001),
                      std::make_pair(3.0, 1000.0)));

}  // namespace
}  // namespace cellscope
