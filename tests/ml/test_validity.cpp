#include "ml/validity.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "ml/distance.h"

namespace cellscope {
namespace {

struct Blobs {
  std::vector<std::vector<double>> points;
  std::vector<int> truth;
};

Blobs make_blobs(std::size_t k, std::size_t per_cluster, double spread,
                 double separation, std::uint64_t seed) {
  Rng rng(seed);
  Blobs blobs;
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      blobs.points.push_back(
          {separation * static_cast<double>(c) + rng.normal(0.0, spread),
           rng.normal(0.0, spread)});
      blobs.truth.push_back(static_cast<int>(c));
    }
  }
  return blobs;
}

TEST(Centroids, AreClusterMeans) {
  const std::vector<std::vector<double>> points = {
      {0.0, 0.0}, {2.0, 0.0}, {10.0, 10.0}};
  const std::vector<int> labels = {0, 0, 1};
  const auto centroids = cluster_centroids(points, labels);
  ASSERT_EQ(centroids.size(), 2u);
  EXPECT_DOUBLE_EQ(centroids[0][0], 1.0);
  EXPECT_DOUBLE_EQ(centroids[0][1], 0.0);
  EXPECT_DOUBLE_EQ(centroids[1][0], 10.0);
}

TEST(Centroids, EmptyClusterThrows) {
  const std::vector<std::vector<double>> points = {{0.0}, {1.0}};
  // Label 2 implies clusters 0..2 but cluster 1 is empty.
  EXPECT_THROW(cluster_centroids(points, {0, 2}), Error);
}

TEST(DaviesBouldin, TightSeparatedClustersScoreLow) {
  const auto good = make_blobs(3, 30, 0.2, 20.0, 1);
  const auto bad = make_blobs(3, 30, 3.0, 4.0, 1);
  const double good_dbi = davies_bouldin(good.points, good.truth);
  const double bad_dbi = davies_bouldin(bad.points, bad.truth);
  EXPECT_LT(good_dbi, 0.2);
  EXPECT_GT(bad_dbi, 3.0 * good_dbi);
}

TEST(DaviesBouldin, KnownTwoClusterValue) {
  // Clusters {0, 2} and {10, 12} on a line: S0 = S1 = 1, M = 10,
  // DBI = (1+1)/10 = 0.2.
  const std::vector<std::vector<double>> points = {
      {0.0}, {2.0}, {10.0}, {12.0}};
  const std::vector<int> labels = {0, 0, 1, 1};
  EXPECT_NEAR(davies_bouldin(points, labels), 0.2, 1e-12);
}

TEST(DaviesBouldin, WrongClusteringScoresWorse) {
  const auto blobs = make_blobs(2, 20, 0.3, 10.0, 2);
  // Scramble half the labels.
  auto scrambled = blobs.truth;
  for (std::size_t i = 0; i < scrambled.size(); i += 2)
    scrambled[i] = 1 - scrambled[i];
  EXPECT_GT(davies_bouldin(blobs.points, scrambled),
            davies_bouldin(blobs.points, blobs.truth));
}

TEST(DaviesBouldin, RequiresTwoClusters) {
  const std::vector<std::vector<double>> points = {{0.0}, {1.0}};
  EXPECT_THROW(davies_bouldin(points, {0, 0}), Error);
}

TEST(DbiSweep, MinimumAtTheTrueClusterCount) {
  const auto blobs = make_blobs(5, 25, 0.3, 15.0, 8);
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  const auto sweep = dbi_sweep(dendrogram, blobs.points, 2, 10);
  ASSERT_EQ(sweep.size(), 9u);
  EXPECT_EQ(best_cut(sweep).k, 5u);
}

TEST(DbiSweep, ThresholdsDecreaseWithK) {
  const auto blobs = make_blobs(3, 20, 0.4, 10.0, 9);
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  const auto sweep = dbi_sweep(dendrogram, blobs.points, 2, 8);
  for (std::size_t i = 1; i < sweep.size(); ++i)
    EXPECT_GE(sweep[i - 1].threshold, sweep[i].threshold);
}

TEST(DbiSweep, MinClusterSizeMarksTinyClustersInvalid) {
  // 2 big blobs plus one far outlier *pair*: with min_cluster_size=3 the
  // pair invalidates every cut that isolates it, while min_cluster_size=2
  // accepts the 3-cluster cut.
  auto blobs = make_blobs(2, 20, 0.3, 10.0, 10);
  blobs.points.push_back({100.0, 100.0});
  blobs.points.push_back({100.1, 100.0});
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);

  const auto strict = dbi_sweep(dendrogram, blobs.points, 2, 4,
                                /*min_cluster_size=*/3);
  for (const auto& point : strict)
    EXPECT_FALSE(point.valid) << "k = " << point.k;  // pair always isolated

  const auto lenient = dbi_sweep(dendrogram, blobs.points, 2, 4,
                                 /*min_cluster_size=*/2);
  for (const auto& point : lenient) {
    // k=2 (blobs merged vs pair) and k=3 (blob, blob, pair) are valid;
    // k=4 splits a blob or the pair into a singleton only if the next
    // merge is within a blob — check just the guaranteed cuts.
    if (point.k <= 3) {
      EXPECT_TRUE(point.valid) << "k = " << point.k;
    }
  }
  EXPECT_TRUE(best_cut(lenient).valid);
}

TEST(DbiSweep, FallsBackWhenNoCutIsValid) {
  const auto blobs = make_blobs(2, 3, 0.3, 10.0, 11);
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  // min_cluster_size larger than any cluster: everything invalid.
  const auto sweep = dbi_sweep(dendrogram, blobs.points, 2, 3, 100);
  for (const auto& point : sweep) EXPECT_FALSE(point.valid);
  EXPECT_NO_THROW(best_cut(sweep));
}

TEST(DbiSweep, ValidatesBounds) {
  const auto blobs = make_blobs(2, 5, 0.3, 10.0, 12);
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  EXPECT_THROW(dbi_sweep(dendrogram, blobs.points, 1, 5), Error);
  EXPECT_THROW(dbi_sweep(dendrogram, blobs.points, 5, 2), Error);
  EXPECT_THROW(best_cut({}), Error);
}

}  // namespace
}  // namespace cellscope
