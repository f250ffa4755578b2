// Cross-module property tests: invariants that must hold across the whole
// pipeline regardless of configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "city/deployment.h"
#include "common/error.h"
#include "common/stats.h"
#include "dsp/spectrum.h"
#include "ml/distance.h"
#include "ml/hierarchical.h"
#include "pipeline/traffic_matrix.h"
#include "pipeline/vectorizer.h"
#include "traffic/intensity_model.h"

namespace cellscope {
namespace {

struct Fixture {
  std::vector<Tower> towers;
  TrafficMatrix matrix;
};

Fixture make_fixture(std::size_t n, std::uint64_t seed = 5) {
  Fixture f;
  const auto city = CityModel::create_default();
  DeploymentOptions deployment;
  deployment.n_towers = n;
  deployment.seed = seed;
  f.towers = deploy_towers(city, deployment);
  const auto intensity = IntensityModel::create(f.towers, IntensityOptions{});
  f.matrix = vectorize_intensity(f.towers, intensity, seed);
  return f;
}

bool same_partition(const std::vector<int>& a, const std::vector<int>& b) {
  std::map<int, int> fwd;
  std::map<int, int> rev;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fwd.contains(a[i]) && fwd[a[i]] != b[i]) return false;
    if (rev.contains(b[i]) && rev[b[i]] != a[i]) return false;
    fwd[a[i]] = b[i];
    rev[b[i]] = a[i];
  }
  return true;
}

TEST(Invariants, ClusteringIsPermutationInvariant) {
  // Shuffling the input rows must not change the induced partition.
  const auto f = make_fixture(120);
  const auto folded = fold_to_week(zscore_rows(f.matrix));

  std::vector<std::size_t> perm(folded.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng rng(9);
  rng.shuffle(perm);
  std::vector<std::vector<double>> shuffled(folded.size());
  for (std::size_t i = 0; i < perm.size(); ++i) shuffled[i] = folded[perm[i]];

  const auto labels = Dendrogram::run(DistanceMatrix::compute(folded),
                                      Linkage::kAverage)
                          .cut_k(5);
  const auto labels_shuffled =
      Dendrogram::run(DistanceMatrix::compute(shuffled), Linkage::kAverage)
          .cut_k(5);
  // Undo the permutation and compare partitions.
  std::vector<int> unshuffled(labels.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    unshuffled[perm[i]] = labels_shuffled[i];
  EXPECT_TRUE(same_partition(labels, unshuffled));
}

TEST(Invariants, ClusteringIsScaleInvariant) {
  // The vectorizer z-scores every tower, so multiplying any tower's raw
  // traffic by a constant must not change the partition (the paper's
  // point: amplitude only reflects user counts, not pattern).
  const auto f = make_fixture(100);
  auto scaled = f.matrix;
  Rng rng(11);
  for (auto& row : scaled.rows) {
    const double factor = rng.uniform(0.1, 50.0);
    for (auto& v : row) v *= factor;
  }
  const auto a = fold_to_week(zscore_rows(f.matrix));
  const auto b = fold_to_week(zscore_rows(scaled));
  const auto labels_a =
      Dendrogram::run(DistanceMatrix::compute(a), Linkage::kAverage).cut_k(5);
  const auto labels_b =
      Dendrogram::run(DistanceMatrix::compute(b), Linkage::kAverage).cut_k(5);
  EXPECT_TRUE(same_partition(labels_a, labels_b));
}

TEST(Invariants, AggregateSpectrumIsSumOfSpectra) {
  // DFT linearity across the pipeline: the spectrum of the aggregate
  // equals the complex sum of per-tower spectra.
  const auto f = make_fixture(30);
  const auto total = aggregate_series(f.matrix);
  const std::size_t bins[] = {kWeeklyComponent, kDailyComponent, 77};
  const auto aggregate_spectrum = dft_bins(total, bins);
  std::vector<Complex> summed(std::size(bins), Complex(0.0, 0.0));
  for (const auto& row : f.matrix.rows) {
    const auto spectrum = dft_bins(row, bins);
    for (std::size_t b = 0; b < summed.size(); ++b) summed[b] += spectrum[b];
  }
  for (std::size_t b = 0; b < summed.size(); ++b)
    EXPECT_NEAR(std::abs(aggregate_spectrum[b] - summed[b]), 0.0,
                1e-3 * std::abs(summed[b]) + 1e-6)
        << "k = " << bins[b];
}

TEST(Invariants, DendrogramClusterCountIsMonotoneInThreshold) {
  // Cutting at a threshold applies every merge at or below it, so the
  // cluster count falls monotonically with the threshold exactly when the
  // n - 1 merge distances are non-decreasing.
  const auto f = make_fixture(80);
  const auto folded = fold_to_week(zscore_rows(f.matrix));
  const auto dendrogram =
      Dendrogram::run(DistanceMatrix::compute(folded), Linkage::kAverage);
  const auto& merges = dendrogram.merges();
  ASSERT_EQ(merges.size(), folded.size() - 1);
  for (std::size_t i = 1; i < merges.size(); ++i)
    EXPECT_LE(merges[i - 1].distance, merges[i].distance);
}

TEST(Invariants, CutsAreNestedRefinements) {
  // cut_k(k+1) must refine cut_k(k): every (k+1)-cluster lies inside one
  // k-cluster.
  const auto f = make_fixture(60);
  const auto folded = fold_to_week(zscore_rows(f.matrix));
  const auto dendrogram =
      Dendrogram::run(DistanceMatrix::compute(folded), Linkage::kAverage);
  for (std::size_t k = 2; k <= 8; ++k) {
    const auto coarse = dendrogram.cut_k(k);
    const auto fine = dendrogram.cut_k(k + 1);
    std::map<int, int> parent;  // fine label -> coarse label
    for (std::size_t i = 0; i < coarse.size(); ++i) {
      const auto [it, inserted] = parent.emplace(fine[i], coarse[i]);
      EXPECT_EQ(it->second, coarse[i])
          << "fine cluster split across coarse clusters at k=" << k;
    }
  }
}

TEST(Invariants, ZscoreThenFoldEqualsFoldOfZscoreForWeeklySignals) {
  // For exactly weekly-periodic signals the fold is lossless, so the two
  // orders agree up to the variance renormalization.
  std::vector<double> weekly(TimeGrid::kSlots);
  for (std::size_t s = 0; s < weekly.size(); ++s)
    weekly[s] = std::sin(2.0 * M_PI *
                         static_cast<double>(s % TimeGrid::kSlotsPerWeek) /
                         TimeGrid::kSlotsPerWeek) +
                2.0;
  TrafficMatrix m;
  m.tower_ids = {0};
  m.rows = {weekly};
  const auto folded_z = fold_to_week(zscore_rows(m))[0];
  const auto z_direct = zscore(std::vector<double>(
      weekly.begin(), weekly.begin() + TimeGrid::kSlotsPerWeek));
  for (std::size_t s = 0; s < folded_z.size(); s += 31)
    EXPECT_NEAR(folded_z[s], z_direct[s], 1e-9);
}

TEST(Invariants, DeploymentHistogramIsSeedIndependent) {
  // The largest-remainder quota allocation fixes cluster sizes for any
  // seed; only positions/order vary.
  const auto city = CityModel::create_default();
  DeploymentOptions a;
  a.n_towers = 777;
  DeploymentOptions b = a;
  b.seed = a.seed + 123;
  EXPECT_EQ(region_histogram(deploy_towers(city, a)),
            region_histogram(deploy_towers(city, b)));
}

}  // namespace
}  // namespace cellscope
