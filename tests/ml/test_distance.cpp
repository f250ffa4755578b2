#include "ml/distance.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"

namespace cellscope {
namespace {

std::vector<std::vector<double>> random_points(std::size_t n, std::size_t dim,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(n, std::vector<double>(dim));
  for (auto& p : points)
    for (auto& v : p) v = rng.normal();
  return points;
}

TEST(DistanceMatrix, MatchesDirectComputation) {
  const auto points = random_points(20, 5, 1);
  const auto matrix = DistanceMatrix::compute(points);
  for (std::size_t i = 0; i < points.size(); ++i)
    for (std::size_t j = 0; j < points.size(); ++j)
      EXPECT_NEAR(matrix(i, j), euclidean_distance(points[i], points[j]),
                  1e-5);
}

TEST(DistanceMatrix, IsSymmetricWithZeroDiagonal) {
  const auto points = random_points(15, 3, 2);
  const auto matrix = DistanceMatrix::compute(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(matrix(i, i), 0.0);
    for (std::size_t j = 0; j < points.size(); ++j)
      EXPECT_DOUBLE_EQ(matrix(i, j), matrix(j, i));
  }
}

TEST(DistanceMatrix, CondensedConstructorValidatesSize) {
  EXPECT_THROW(DistanceMatrix(4, std::vector<float>(5)), Error);
  EXPECT_NO_THROW(DistanceMatrix(4, std::vector<float>(6)));
  EXPECT_THROW(DistanceMatrix(1, {}), Error);
}

TEST(DistanceMatrix, RequiresConsistentDimensions) {
  std::vector<std::vector<double>> points = {{1.0, 2.0}, {3.0}};
  EXPECT_THROW(DistanceMatrix::compute(points), Error);
}

TEST(DistanceMatrix, RequiresTwoPoints) {
  EXPECT_THROW(DistanceMatrix::compute({{1.0}}), Error);
}

TEST(DistanceMatrix, InvalidIndicesThrowInDebug) {
  // Accessor bounds checks are CS_DCHECK — active in debug builds only,
  // so the NN-chain inner loop stays branch-free in release.
#ifndef NDEBUG
  const auto matrix = DistanceMatrix::compute(random_points(4, 2, 5));
  EXPECT_THROW(matrix(0, 4), Error);
  EXPECT_THROW(matrix(4, 4), Error);
#else
  GTEST_SKIP() << "accessor bounds checks are compiled out under NDEBUG";
#endif
}

}  // namespace
}  // namespace cellscope
