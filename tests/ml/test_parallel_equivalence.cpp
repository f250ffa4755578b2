// Serial/parallel equivalence of the analytics core (DESIGN.md §8).
//
// The determinism contract: every pooled stage — the log and intensity
// vectorizers, the blocked distance kernel, the incremental DBI sweep, the
// per-row z-score/fold loops, the per-tower spectra and POI counts, and
// the representative search — produces BIT-IDENTICAL output for any
// worker count, because tiles/rows partition the output and every
// reduction runs in a fixed order. These tests pin that contract with exact comparisons
// (no tolerances), and check the incremental DBI sweep against a
// brute-force per-k oracle. Built as its own binary (label: par) so the
// CELLSCOPE_SANITIZE=thread build can run it in isolation.
// The same contract extends across SIMD dispatch: the distance tile's
// dot_4x8 kernel in src/simd/ accumulates every output in the scalar
// order (DESIGN.md §12), so forcing scalar vs the widest detected ISA
// must also be bit-identical — including ragged tile edges, odd
// dimensions, and non-finite inputs (compared bitwise, since NaN != NaN).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/component_analysis.h"
#include "analysis/freq_features.h"
#include "analysis/poi_features.h"
#include "city/deployment.h"
#include "city/poi.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time_grid.h"
#include "dsp/spectrum.h"
#include "geo/spatial_index.h"
#include "mapred/thread_pool.h"
#include "ml/distance.h"
#include "ml/hierarchical.h"
#include "ml/validity.h"
#include "pipeline/traffic_matrix.h"
#include "pipeline/vectorizer.h"
#include "simd/simd.h"
#include "traffic/intensity_model.h"

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

/// Clustered points so dendrogram cuts and DBI sweeps are non-trivial.
std::vector<std::vector<double>> blob_points(std::size_t per_blob,
                                             std::size_t dim,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points;
  for (int blob = 0; blob < 4; ++blob) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      std::vector<double> p(dim);
      for (auto& v : p) v = blob * 8.0 + rng.normal();
      points.push_back(std::move(p));
    }
  }
  return points;
}

/// (n, dim) shapes that straddle the distance tile's edges: more rows
/// than one 128-row tile, n not a multiple of the 4-row or 8-column
/// micro-kernel block, and dimensions below the vector width.
const std::vector<std::pair<std::size_t, std::size_t>>& tile_edge_shapes() {
  static const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {157, 33}, {261, 3}, {130, 1}, {301, 2}, {36, 5}};
  return shapes;
}

TEST(ParallelEquivalence, DistanceMatrixBitIdenticalAcrossThreadCounts) {
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  for (const auto& [n, dim] : tile_edge_shapes()) {
    const auto points = random_points(n, dim, 1);
    const auto serial = DistanceMatrix::compute(points);
    const auto par1 = DistanceMatrix::compute(points, &pool1);
    const auto par8 = DistanceMatrix::compute(points, &pool8);
    ASSERT_EQ(serial.condensed().size(), par8.condensed().size());
    EXPECT_EQ(serial.condensed(), par1.condensed()) << "n=" << n;
    EXPECT_EQ(serial.condensed(), par8.condensed()) << "n=" << n;
  }
}

TEST(ParallelEquivalence, DistanceKernelMatchesDirectEuclidean) {
  // The |a|²+|b|²−2a·b kernel agrees with the direct definition to float
  // precision, so every entry — across tiles, blocks and the diagonal —
  // is written, and written to the right place.
  ThreadPool pool(4);
  for (const auto& [n, dim] : tile_edge_shapes()) {
    const auto points = random_points(n, dim, 2);
    const auto matrix = DistanceMatrix::compute(points, &pool);
    for (std::size_t i = 0; i < points.size(); ++i)
      for (std::size_t j = i + 1; j < points.size(); ++j)
        ASSERT_NEAR(matrix(i, j), euclidean_distance(points[i], points[j]),
                    1e-4)
            << "n=" << n << " dim=" << dim << " i=" << i << " j=" << j;
  }
}

TEST(ParallelEquivalence, DendrogramMergesIdenticalAcrossThreadCounts) {
  // 1,000 points: the linkage splits its scans and updates from 512 slots.
  const auto points = blob_points(250, 24, 3);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto serial =
      Dendrogram::run(DistanceMatrix::compute(points), Linkage::kAverage);
  const auto par1 = Dendrogram::run(DistanceMatrix::compute(points, &pool1),
                                    Linkage::kAverage, &pool1);
  const auto par8 = Dendrogram::run(DistanceMatrix::compute(points, &pool8),
                                    Linkage::kAverage, &pool8);
  ASSERT_EQ(serial.merges().size(), par8.merges().size());
  for (std::size_t m = 0; m < serial.merges().size(); ++m) {
    EXPECT_EQ(serial.merges()[m].a, par1.merges()[m].a);
    EXPECT_EQ(serial.merges()[m].b, par1.merges()[m].b);
    EXPECT_EQ(serial.merges()[m].distance, par1.merges()[m].distance);
    EXPECT_EQ(serial.merges()[m].a, par8.merges()[m].a);
    EXPECT_EQ(serial.merges()[m].b, par8.merges()[m].b);
    EXPECT_EQ(serial.merges()[m].distance, par8.merges()[m].distance);
  }
}

TEST(ParallelEquivalence, DbiSweepBitIdenticalAcrossThreadCounts) {
  const auto points = blob_points(25, 16, 4);
  const auto dendrogram =
      Dendrogram::run(DistanceMatrix::compute(points), Linkage::kAverage);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto serial = dbi_sweep(dendrogram, points, 2, 12, 2);
  const auto par1 = dbi_sweep(dendrogram, points, 2, 12, 2, &pool1);
  const auto par8 = dbi_sweep(dendrogram, points, 2, 12, 2, &pool8);
  ASSERT_EQ(serial.size(), par8.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].k, par8[i].k);
    EXPECT_EQ(serial[i].dbi, par1[i].dbi);
    EXPECT_EQ(serial[i].dbi, par8[i].dbi);
    EXPECT_EQ(serial[i].threshold, par8[i].threshold);
    EXPECT_EQ(serial[i].valid, par8[i].valid);
  }
}

TEST(ParallelEquivalence, DbiSweepMatchesBruteForcePerKOracle) {
  // The incremental sweep against the implementation it replaced: one
  // cut_k + davies_bouldin recomputation per k.
  const auto points = blob_points(25, 16, 5);
  const std::size_t k_min = 2;
  const std::size_t k_max = 14;
  const std::size_t min_cluster_size = 3;
  const auto dendrogram =
      Dendrogram::run(DistanceMatrix::compute(points), Linkage::kAverage);
  const auto sweep =
      dbi_sweep(dendrogram, points, k_min, k_max, min_cluster_size);
  ASSERT_EQ(sweep.size(), k_max - k_min + 1);
  const auto& merges = dendrogram.merges();
  for (std::size_t k = k_min; k <= k_max; ++k) {
    const auto& point = sweep[k - k_min];
    EXPECT_EQ(point.k, k);
    const auto labels = dendrogram.cut_k(k);
    EXPECT_DOUBLE_EQ(point.dbi, davies_bouldin(points, labels));
    const std::size_t applied = dendrogram.n() - k;
    EXPECT_EQ(point.threshold, applied < merges.size()
                                   ? merges[applied].distance
                                   : merges.back().distance);
    std::vector<std::size_t> sizes(num_clusters(labels), 0);
    for (const int label : labels) ++sizes[static_cast<std::size_t>(label)];
    EXPECT_EQ(point.valid, std::ranges::all_of(sizes, [&](std::size_t size) {
                return size >= min_cluster_size;
              }));
  }
}

TEST(ParallelEquivalence, ZscoreAndFoldBitIdenticalAcrossThreadCounts) {
  Rng rng(6);
  TrafficMatrix matrix;
  for (std::size_t i = 0; i < 37; ++i) {
    matrix.tower_ids.push_back(static_cast<std::uint32_t>(i));
    std::vector<double> row(TimeGrid::kSlots);
    for (auto& v : row) v = 100.0 + 50.0 * rng.normal();
    matrix.rows.push_back(std::move(row));
  }
  ThreadPool pool8(8);
  const auto serial_z = zscore_rows(matrix);
  const auto par_z = zscore_rows(matrix, &pool8);
  EXPECT_EQ(serial_z, par_z);
  const auto serial_fold = fold_to_week(serial_z);
  const auto par_fold = fold_to_week(serial_z, &pool8);
  EXPECT_EQ(serial_fold, par_fold);
}

TEST(ParallelEquivalence, FreqFeaturesBitIdenticalAcrossThreadCounts) {
  Rng rng(7);
  std::vector<std::vector<double>> rows(23,
                                        std::vector<double>(TimeGrid::kSlots));
  for (auto& row : rows)
    for (auto& v : row) v = rng.normal();
  ThreadPool pool8(8);
  const auto serial = compute_freq_features(rows);
  const auto par = compute_freq_features(rows, &pool8);
  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].amp_week, par[i].amp_week);
    EXPECT_EQ(serial[i].phase_week, par[i].phase_week);
    EXPECT_EQ(serial[i].amp_day, par[i].amp_day);
    EXPECT_EQ(serial[i].phase_day, par[i].phase_day);
    EXPECT_EQ(serial[i].amp_half_day, par[i].amp_half_day);
    EXPECT_EQ(serial[i].phase_half_day, par[i].phase_half_day);
  }
  const auto serial_var = amplitude_variance_spectrum(rows, 100);
  const auto par_var = amplitude_variance_spectrum(rows, 100, &pool8);
  EXPECT_EQ(serial_var, par_var);
}

TEST(ParallelEquivalence, SharedRootsTableRaceIsBitIdenticalToSerial) {
  // Eight threads race the first use of each length's roots-of-unity
  // table (each thread starts at a different length); every thread's
  // bins and reconstruction must equal a later serial call bit for bit.
  struct Case {
    std::vector<double> series;
    std::vector<std::size_t> bins;
  };
  Rng rng(29);
  std::vector<Case> cases;
  for (const std::size_t n : {std::size_t{4032}, std::size_t{1008},
                              std::size_t{251}}) {
    Case c;
    c.series.resize(n);
    for (auto& v : c.series) v = rng.normal();
    c.bins = {1, n / 72, n / 36, n / 2};
    cases.push_back(std::move(c));
  }

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<std::vector<Complex>>> bins(
      kThreads, std::vector<std::vector<Complex>>(cases.size()));
  std::vector<std::vector<std::vector<double>>> series(
      kThreads, std::vector<std::vector<double>>(cases.size()));
  std::atomic<std::size_t> arrived{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      for (std::size_t j = 0; j < cases.size(); ++j) {
        const std::size_t c = (t + j) % cases.size();
        bins[t][c] = dft_bins(cases[c].series, cases[c].bins);
        series[t][c] = reconstruct(cases[c].series, cases[c].bins);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto want_bins = dft_bins(cases[c].series, cases[c].bins);
    const auto want_series = reconstruct(cases[c].series, cases[c].bins);
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(bins[t][c], want_bins) << "N = " << cases[c].series.size();
      EXPECT_EQ(series[t][c], want_series)
          << "N = " << cases[c].series.size();
    }
  }
}

/// A small city: towers, their intensity model and POIs.
struct SmallCity {
  CityModel city = CityModel::create_default(3);
  std::vector<Tower> towers;
  std::unique_ptr<IntensityModel> intensity;
  std::unique_ptr<PoiDatabase> pois;

  explicit SmallCity(std::size_t n_towers) {
    DeploymentOptions deployment;
    deployment.n_towers = n_towers;
    deployment.seed = 3;
    towers = deploy_towers(city, deployment);
    intensity = std::make_unique<IntensityModel>(
        IntensityModel::create(towers, IntensityOptions{}));
    pois = std::make_unique<PoiDatabase>(PoiDatabase::generate(
        city, towers, intensity->mixtures(), PoiGenerationOptions{}));
  }
};

TEST(ParallelEquivalence, VectorizeIntensityBitIdenticalAcrossThreadCounts) {
  const SmallCity s(45);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto serial = vectorize_intensity(s.towers, *s.intensity, 17);
  const auto par1 = vectorize_intensity(s.towers, *s.intensity, 17, &pool1);
  const auto par8 = vectorize_intensity(s.towers, *s.intensity, 17, &pool8);
  EXPECT_EQ(serial.tower_ids, par8.tower_ids);
  EXPECT_EQ(serial.rows, par1.rows);
  EXPECT_EQ(serial.rows, par8.rows);
}

TEST(ParallelEquivalence, VectorizeLogsBitIdenticalAcrossPoolSizes) {
  const SmallCity s(45);
  // Byte counts around 2^50..2^54 packed into few bins: the per-bin sums
  // pass 2^53, so each addition rounds and the summation order shows in
  // the result. A few logs name an unknown tower or start past the grid.
  Rng rng(23);
  std::vector<TrafficLog> logs(6000);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    auto& log = logs[i];
    log.tower_id = i % 97 == 0
                       ? 999999u
                       : s.towers[static_cast<std::size_t>(
                                   rng.uniform_int(0, 44))].id;
    const auto slot = static_cast<std::uint32_t>(rng.uniform_int(0, 15)) * 251;
    log.start_minute =
        i % 89 == 0 ? static_cast<std::uint32_t>(TimeGrid::kSlots) * 10 + 3
                    : slot * 10 + static_cast<std::uint32_t>(i % 10);
    log.end_minute = log.start_minute + 1;
    log.bytes = static_cast<std::uint64_t>(
        rng.uniform(std::ldexp(1.0, 50), std::ldexp(1.0, 54)));
  }

  // Oracle: a plain per-bin loop in input order.
  TrafficMatrix oracle;
  oracle.rows.assign(s.towers.size(),
                     std::vector<double>(TimeGrid::kSlots, 0.0));
  std::vector<double> reversed(oracle.rows.size() * TimeGrid::kSlots, 0.0);
  for (std::size_t r = 0; r < s.towers.size(); ++r) {
    oracle.tower_ids.push_back(s.towers[r].id);
    for (std::size_t i = 0; i < logs.size(); ++i) {
      const std::size_t slot = logs[i].start_minute / TimeGrid::kSlotMinutes;
      if (logs[i].tower_id == s.towers[r].id && slot < TimeGrid::kSlots)
        oracle.rows[r][slot] += static_cast<double>(logs[i].bytes);
    }
    for (std::size_t i = logs.size(); i-- > 0;) {
      const std::size_t slot = logs[i].start_minute / TimeGrid::kSlotMinutes;
      if (logs[i].tower_id == s.towers[r].id && slot < TimeGrid::kSlots)
        reversed[r * TimeGrid::kSlots + slot] +=
            static_cast<double>(logs[i].bytes);
    }
  }
  // The trace is order-sensitive: summing backwards changes some bin.
  std::size_t order_sensitive_bins = 0;
  for (std::size_t r = 0; r < oracle.rows.size(); ++r)
    for (std::size_t slot = 0; slot < TimeGrid::kSlots; ++slot)
      if (reversed[r * TimeGrid::kSlots + slot] != oracle.rows[r][slot])
        ++order_sensitive_bins;
  ASSERT_GT(order_sensitive_bins, 0u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const auto matrix = vectorize_logs(logs, s.towers, pool);
    EXPECT_EQ(matrix.tower_ids, oracle.tower_ids) << threads << " threads";
    EXPECT_EQ(matrix.rows, oracle.rows) << threads << " threads";
  }
}

TEST(ParallelEquivalence, PoiCountsIdenticalAcrossThreadCounts) {
  const SmallCity s(45);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto serial = poi_counts_for_towers(*s.pois, s.towers);
  EXPECT_EQ(serial,
            poi_counts_for_towers(*s.pois, s.towers, kPoiRadiusM, &pool1));
  EXPECT_EQ(serial,
            poi_counts_for_towers(*s.pois, s.towers, kPoiRadiusM, &pool8));
  // A radius wide enough that the counts are not mostly zero.
  EXPECT_EQ(poi_counts_for_towers(*s.pois, s.towers, 2000.0),
            poi_counts_for_towers(*s.pois, s.towers, 2000.0, &pool8));
}

TEST(ParallelEquivalence, CountRadiusMatchesQuerySizeAtClampedEdges) {
  // count_radius counts in place; it must agree with query_radius's
  // collected hits, including points clamped onto the box edges and
  // centers on, near and beyond them.
  const BoundingBox box{31.0, 31.2, 121.0, 121.2};
  Rng rng(18);
  std::vector<LatLon> points;
  for (int i = 0; i < 300; ++i)
    points.push_back({rng.uniform(30.9, 31.3), rng.uniform(120.9, 121.3)});
  points.push_back({31.0, 121.0});  // exactly on a corner
  points.push_back({35.0, 121.1});  // far outside, clamped to the north edge
  const SpatialIndex index(box, points, 0.4);
  std::vector<LatLon> centers = {{31.0, 121.0}, {31.2, 121.2}, {31.2, 121.1},
                                 {31.25, 121.1}, {30.95, 120.95}};
  for (int i = 0; i < 40; ++i)
    centers.push_back({rng.uniform(30.95, 31.25), rng.uniform(120.95, 121.25)});
  for (const auto& center : centers) {
    for (const double radius : {0.0, 150.0, 1000.0, 8000.0}) {
      EXPECT_EQ(index.count_radius(center, radius),
                index.query_radius(center, radius).size())
          << "center=(" << center.lat << ", " << center.lon
          << ") radius=" << radius;
    }
  }
}

/// The serial representative search the pooled one replaced, spelled out
/// as the oracle: the density floor, then a strict-> argmax over members
/// in ascending index, then the same argmax without the floor when every
/// member is noise.
std::size_t representative_oracle(
    const std::vector<std::array<double, 3>>& features,
    const std::vector<int>& labels, int cluster) {
  const auto dist = [&](std::size_t i, std::size_t j) {
    double s = 0.0;
    for (int d = 0; d < 3; ++d)
      s += (features[i][d] - features[j][d]) * (features[i][d] - features[j][d]);
    return std::sqrt(s);
  };
  for (const bool enforce_density : {true, false}) {
    double best_score = -1.0;
    std::size_t best = features.size();
    for (std::size_t i = 0; i < features.size(); ++i) {
      if (labels[i] != cluster) continue;
      std::size_t neighbors = 0;
      for (std::size_t j = 0; j < features.size(); ++j)
        if (j != i && dist(i, j) <= kDensityRadius) ++neighbors;
      if (enforce_density && neighbors < kMinNeighbors) continue;
      double min_d = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < features.size(); ++j)
        if (labels[j] != cluster) min_d = std::min(min_d, dist(i, j));
      if (min_d > best_score) {
        best_score = min_d;
        best = i;
      }
    }
    if (best < features.size()) return best;
  }
  return features.size();
}

TEST(ParallelEquivalence, RepresentativeIdenticalAcrossThreadCounts) {
  // Three clusters of 3-D features with duplicated points, so density
  // counts and separations tie and the ascending-order argmax decides.
  // Dense: points spread 0.2, a little over kDensityRadius, so some
  // members are noise. Sparse: distinct points 2 kDensityRadius apart,
  // so a member has at most its duplicate within the radius, fewer than
  // kMinNeighbors, and the all-noise fallback decides.
  struct Layout {
    std::vector<std::array<double, 3>> features;
    std::vector<int> labels;
    void add(const std::array<double, 3>& f, int cluster, bool duplicate) {
      for (int copy = 0; copy < (duplicate ? 2 : 1); ++copy) {
        features.push_back(f);
        labels.push_back(cluster);
      }
    }
  };
  Rng rng(19);
  Layout dense;
  Layout sparse;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 60; ++i) {
      dense.add({c + 0.2 * rng.normal(), 0.2 * rng.normal(),
                 0.2 * rng.normal()},
                c, i % 2 == 0);
      sparse.add({100.0 * c + 2.0 * kDensityRadius * i, 0.0, 0.0}, c,
                 i % 2 == 0);
    }
  }
  static_assert(kMinNeighbors > 1);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  for (const Layout* layout : {&dense, &sparse}) {
    const auto& [features, labels] = *layout;
    for (int c = 0; c < 3; ++c) {
      const auto want = representative_oracle(features, labels, c);
      EXPECT_EQ(want, find_representative(features, labels, c));
      EXPECT_EQ(want, find_representative(features, labels, c, &pool1));
      EXPECT_EQ(want, find_representative(features, labels, c, &pool8));
    }
  }
}

/// Restores automatic dispatch when a test scope ends, pass or fail.
struct ForcedIsa {
  explicit ForcedIsa(simd::Isa isa) { simd::force_isa(isa); }
  ~ForcedIsa() { simd::force_isa(std::nullopt); }
};

/// Scalar plus the widest ISA this CPU actually has (just scalar when
/// that is all there is — the sweep then degenerates to a self-check).
std::vector<simd::Isa> sweep_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::detected_isa() != simd::Isa::kScalar)
    isas.push_back(simd::detected_isa());
  return isas;
}

/// Bitwise equality — EXPECT_EQ on doubles/floats treats NaN as unequal
/// to itself, and the dispatch contract is about bit patterns anyway.
template <typename T>
bool bit_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(SimdDispatchEquivalence, DistanceMatrixBitIdenticalAcrossIsas) {
  // Odd dimensions and point counts so the 4×8 blocks leave ragged row
  // and column edges and cross tile boundaries, plus dimensions below the
  // vector width.
  auto shapes = tile_edge_shapes();
  shapes.insert(shapes.end(), {{33, 7}, {45, 3}, {9, 64}});
  for (const auto& [n, dim] : shapes) {
    const auto points = random_points(n, dim, 11);
    std::vector<std::vector<float>> results;
    for (const simd::Isa isa : sweep_isas()) {
      ForcedIsa forced(isa);
      results.push_back(DistanceMatrix::compute(points).condensed());
    }
    for (std::size_t r = 1; r < results.size(); ++r)
      EXPECT_TRUE(bit_equal(results[0], results[r]))
          << "n=" << n << " dim=" << dim;
  }
}

TEST(SimdDispatchEquivalence, DistanceMatrixNonFiniteBitIdentical) {
  auto points = random_points(37, 13, 12);
  points[3][5] = std::numeric_limits<double>::quiet_NaN();
  points[10][0] = std::numeric_limits<double>::infinity();
  points[20][12] = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<float>> results;
  for (const simd::Isa isa : sweep_isas()) {
    ForcedIsa forced(isa);
    results.push_back(DistanceMatrix::compute(points).condensed());
  }
  for (std::size_t r = 1; r < results.size(); ++r)
    EXPECT_TRUE(bit_equal(results[0], results[r]));
}

}  // namespace
}  // namespace cellscope
