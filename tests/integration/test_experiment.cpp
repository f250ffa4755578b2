// End-to-end integration: the full Experiment pipeline must reproduce the
// paper's headline findings on the synthetic city.
#include "core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>

#include "analysis/poi_features.h"
#include "common/error.h"
#include "analysis/time_features.h"
#include "common/stats.h"
#include "dsp/spectrum.h"
#include "ml/distance.h"
#include "obs/quality.h"
#include "pipeline/vectorizer.h"
#include "support/oracles.h"

namespace cellscope {
namespace {

/// One shared experiment for the whole suite (running it per-test would
/// dominate CI time).
const Experiment& shared_experiment() {
  static const Experiment experiment = [] {
    ExperimentConfig config;
    config.n_towers = 500;
    config.seed = 2015;
    return Experiment::run(config);
  }();
  return experiment;
}

TEST(Experiment, FindsExactlyFivePatterns) {
  // The paper's headline: five basic time-domain patterns.
  EXPECT_EQ(shared_experiment().n_clusters(), 5u);
}

TEST(Experiment, DbiSweepHasItsMinimumAtTheChosenCut) {
  const auto& sweep = shared_experiment().dbi_sweep_result();
  const auto& chosen = shared_experiment().chosen_cut();
  for (const auto& point : sweep) {
    if (point.valid) {
      EXPECT_GE(point.dbi, chosen.dbi);
    }
  }
}

TEST(Experiment, EveryRegionGetsExactlyOneCluster) {
  std::set<FunctionalRegion> seen;
  for (const auto r : shared_experiment().labeling().region_of_cluster)
    EXPECT_TRUE(seen.insert(r).second) << region_name(r);
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Experiment, LabelAccuracyIsHigh) {
  EXPECT_GT(shared_experiment().validation().accuracy, 0.95);
}

TEST(Experiment, ClusterSharesMatchTable1) {
  // Table 1 shares within a few percentage points.
  const auto& e = shared_experiment();
  const auto mix = table1_region_mix();
  for (std::size_t c = 0; c < e.n_clusters(); ++c) {
    const auto region = e.labeling().region_of_cluster[c];
    const double share =
        static_cast<double>(e.rows_of_cluster(c).size()) /
        static_cast<double>(e.config().n_towers);
    EXPECT_NEAR(share, mix[static_cast<int>(region)], 0.05)
        << region_name(region);
  }
}

TEST(Experiment, TimeDomainSignaturesMatchThePaper) {
  const auto& e = shared_experiment();
  // Transport and office have strong weekday/weekend asymmetry; resident
  // does not (Fig. 10a).
  const auto transport = compute_time_features(
      e.region_aggregate(FunctionalRegion::kTransport));
  const auto office =
      compute_time_features(e.region_aggregate(FunctionalRegion::kOffice));
  const auto resident = compute_time_features(
      e.region_aggregate(FunctionalRegion::kResident));
  EXPECT_GT(transport.weekday_weekend_ratio, 1.25);
  EXPECT_GT(office.weekday_weekend_ratio, 1.5);
  EXPECT_NEAR(resident.weekday_weekend_ratio, 1.0, 0.15);
  // Resident peaks in the evening; office around midday (Table 5).
  EXPECT_NEAR(resident.weekday.peak_hour, 21.5, 1.0);
  EXPECT_GT(office.weekday.peak_hour, 9.0);
  EXPECT_LT(office.weekday.peak_hour, 14.5);
  // Valleys in the early morning for every pattern (the paper: between
  // 4:00 and 5:00; transport's valley is deep and flat, so sampling noise
  // moves its argmin by an hour or so).
  for (const auto r : all_regions()) {
    const auto f = compute_time_features(e.region_aggregate(r));
    EXPECT_GT(f.weekday.valley_hour, 2.0) << region_name(r);
    EXPECT_LT(f.weekday.valley_hour, 6.5) << region_name(r);
  }
}

TEST(Experiment, AggregateSpectrumReconstructsWithLowLoss) {
  // Fig. 12: three components retain > 94 % of aggregate energy.
  const auto aggregate = shared_experiment().total_aggregate();
  EXPECT_LT(energy_loss(aggregate, reconstruct_principal(aggregate)), 0.06);
}

TEST(Experiment, WeeklyPhasesSeparateOfficeFromResidentByPi) {
  // Fig. 15a: office weekly phase vs resident/entertainment ≈ π apart.
  const auto& e = shared_experiment();
  const auto& features = e.freq_features();
  auto mean_phase = [&](FunctionalRegion r) {
    std::vector<double> phases;
    for (const auto row : e.rows_of_cluster(*e.cluster_of_region(r)))
      phases.push_back(features[row].phase_week);
    return circular_mean(phases);
  };
  double gap = std::fabs(mean_phase(FunctionalRegion::kOffice) -
                         mean_phase(FunctionalRegion::kResident));
  gap = std::min(gap, 2.0 * M_PI - gap);
  EXPECT_NEAR(gap, M_PI, 0.5);
}

TEST(Experiment, DailyPhaseOrderingEncodesCommuting) {
  // Fig. 15b / 16b: mean daily phase increases along
  // resident -> comprehensive -> transport -> office.
  const auto& e = shared_experiment();
  const auto& features = e.freq_features();
  auto mean_phase = [&](FunctionalRegion r) {
    std::vector<double> phases;
    for (const auto row : e.rows_of_cluster(*e.cluster_of_region(r)))
      phases.push_back(features[row].phase_day);
    return circular_mean(phases);
  };
  const double resident = mean_phase(FunctionalRegion::kResident);
  const double comprehensive = mean_phase(FunctionalRegion::kComprehensive);
  const double transport = mean_phase(FunctionalRegion::kTransport);
  const double office = mean_phase(FunctionalRegion::kOffice);
  EXPECT_LT(resident, comprehensive);
  EXPECT_LT(comprehensive, transport);
  EXPECT_LT(transport, office);
}

TEST(Experiment, TransportHasTheStrongestHalfDayComponent) {
  // Fig. 16c: transport's double hump dominates the half-day amplitude.
  const auto& e = shared_experiment();
  const auto& features = e.freq_features();
  auto mean_amp = [&](FunctionalRegion r) {
    std::vector<double> amps;
    for (const auto row : e.rows_of_cluster(*e.cluster_of_region(r)))
      amps.push_back(features[row].amp_half_day);
    return mean(amps);
  };
  const double transport = mean_amp(FunctionalRegion::kTransport);
  for (const auto r :
       {FunctionalRegion::kOffice, FunctionalRegion::kEntertainment,
        FunctionalRegion::kComprehensive}) {
    EXPECT_GT(transport, mean_amp(r)) << region_name(r);
  }
}

TEST(Experiment, OfficeHasTheStrongestWeeklyComponent) {
  // Fig. 16a.
  const auto& e = shared_experiment();
  const auto& features = e.freq_features();
  auto mean_amp = [&](FunctionalRegion r) {
    std::vector<double> amps;
    for (const auto row : e.rows_of_cluster(*e.cluster_of_region(r)))
      amps.push_back(features[row].amp_week);
    return mean(amps);
  };
  const double office = mean_amp(FunctionalRegion::kOffice);
  for (const auto r :
       {FunctionalRegion::kResident, FunctionalRegion::kEntertainment,
        FunctionalRegion::kComprehensive}) {
    EXPECT_GT(office, mean_amp(r)) << region_name(r);
  }
}

TEST(Experiment, ComprehensiveTracksTheCityAverage) {
  // Fig. 11 bottom row: comprehensive ≈ average of all towers.
  const auto& e = shared_experiment();
  const auto comprehensive =
      e.region_aggregate(FunctionalRegion::kComprehensive);
  const auto total = e.total_aggregate();
  EXPECT_GT(pearson(comprehensive, total), 0.9);
}

TEST(Experiment, RepresentativesBelongToTheirClusters) {
  const auto& e = shared_experiment();
  const auto& reps = e.representatives();
  for (int r = 0; r < 4; ++r) {
    const auto cluster = e.cluster_of_region(static_cast<FunctionalRegion>(r));
    ASSERT_TRUE(cluster.has_value());
    EXPECT_EQ(static_cast<std::size_t>(e.labels()[reps[r]]), *cluster);
  }
}

TEST(Experiment, ComprehensiveTowersDecomposeWithSmallResidual) {
  // §5.3: comprehensive towers ≈ convex combinations of the four primary
  // components in the (A28, P28, A56) space.
  const auto& e = shared_experiment();
  const auto& features = e.freq_features();
  const auto& reps = e.representatives();
  std::array<std::array<double, 3>, 4> primaries;
  for (int i = 0; i < 4; ++i) primaries[i] = features[reps[i]].qp_feature();

  const auto rows =
      e.rows_of_cluster(*e.cluster_of_region(FunctionalRegion::kComprehensive));
  double total_residual = 0.0;
  for (const auto row : rows) {
    const auto d = decompose_feature(features[row].qp_feature(), primaries);
    total_residual += d.residual;
  }
  EXPECT_LT(total_residual / static_cast<double>(rows.size()), 0.25);
}

TEST(Experiment, PoiValidationShowsDominanceDiagonal) {
  // Table 3: each pure cluster is dominated by its own POI type when the
  // columns are compared across clusters.
  const auto& e = shared_experiment();
  const auto normalized = normalized_poi_by_cluster(e.poi_counts(),
                                                    e.labels());
  for (const PoiType type : all_poi_types()) {
    const auto own_cluster = e.cluster_of_region(region_of_poi_type(type));
    ASSERT_TRUE(own_cluster.has_value());
    for (std::size_t c = 0; c < normalized.size(); ++c) {
      if (c == *own_cluster) continue;
      EXPECT_GE(normalized[*own_cluster][static_cast<int>(type)],
                normalized[c][static_cast<int>(type)])
          << poi_type_name(type) << " vs cluster " << c;
    }
  }
}

TEST(Experiment, IsDeterministic) {
  ExperimentConfig config;
  config.n_towers = 120;
  config.seed = 77;
  const auto a = Experiment::run(config);
  const auto b = Experiment::run(config);
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_EQ(a.chosen_cut().k, b.chosen_cut().k);
  EXPECT_DOUBLE_EQ(a.chosen_cut().dbi, b.chosen_cut().dbi);
}

TEST(Experiment, FullLengthClusteringAlsoFindsFivePatterns) {
  // The weekly fold is an optimization, not a crutch: clustering the full
  // 4032-dim z-scored vectors through the same stages gives the same
  // answer. The fold averages per-slot noise over 4 weeks (a 2x SNR
  // gain); match that gain here so the two representations are compared
  // at equal signal-to-noise.
  ExperimentConfig config;
  config.n_towers = 250;
  config.intensity.noise_cv = 0.06;
  const auto e = Experiment::run(config);
  const auto zscored = zscore_rows(e.matrix());
  const auto dendrogram = Dendrogram::run(DistanceMatrix::compute(zscored),
                                          Linkage::kAverage);
  const auto min_cluster_size = static_cast<std::size_t>(
      std::max(2.0, config.min_cluster_fraction *
                        static_cast<double>(config.n_towers)));
  const auto sweep = dbi_sweep(dendrogram, zscored, config.k_min,
                               config.k_max, min_cluster_size);
  const auto labels = dendrogram.cut_k(best_cut(sweep).k);
  EXPECT_EQ(num_clusters(labels), 5u);

  const auto labeling = label_clusters_by_poi(
      normalized_poi_by_cluster(e.poi_counts(), labels));
  std::vector<std::size_t> row_tower(e.matrix().n());
  for (std::size_t i = 0; i < row_tower.size(); ++i) row_tower[i] = i;
  EXPECT_GT(validate_labels(labels, labeling, row_tower, e.towers()).accuracy,
            0.95);
}

/// The stored verdict of one stage-4/5 quality check.
obs::QualityVerdict verdict_named(const std::string& check) {
  for (const auto& v : obs::QualityBoard::instance().verdicts())
    if (v.check == check) return v;
  ADD_FAILURE() << "no verdict " << check;
  return {};
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Experiment, BlockedZscorePassMatchesTheWholeCity) {
  // Stage 4 samples and z-scores the city a block of rows at a time and
  // never holds it. 333 towers is one full block plus a partial one;
  // every product must equal what the whole raw and z-scored city give,
  // bit for bit.
  obs::QualityBoard::instance().clear();
  ExperimentConfig config;
  config.n_towers = 333;
  const auto e = Experiment::run(config);

  // matrix() is the vectorizer's matrix for the streams stage 4 sampled.
  const auto vectorized = vectorize_intensity(
      e.towers(), e.intensity(), config.seed ^ 0x94D049BB133111EBull);
  ASSERT_EQ(e.matrix().tower_ids, vectorized.tower_ids);
  ASSERT_EQ(e.matrix().n(), vectorized.n());
  for (std::size_t i = 0; i < vectorized.n(); ++i)
    ASSERT_EQ(std::memcmp(e.matrix().rows[i].data(),
                          vectorized.rows[i].data(),
                          vectorized.rows[i].size() * sizeof(double)),
              0)
        << "row " << i;
  const auto finite_want = obs::check_finite_rows(e.matrix().rows);
  const auto finite_got = verdict_named("matrix_finite");
  EXPECT_TRUE(same_bits(finite_got.value, finite_want.value));
  EXPECT_EQ(finite_got.passed, finite_want.passed);
  EXPECT_EQ(finite_got.detail, finite_want.detail);
  const auto total = aggregate_series(e.matrix());
  const auto total_got = e.total_aggregate();
  ASSERT_EQ(total_got.size(), total.size());
  EXPECT_EQ(std::memcmp(total_got.data(), total.data(),
                        total.size() * sizeof(double)),
            0);

  const auto zscored = zscore_rows(e.matrix());

  const auto folded = fold_to_week(zscored);
  ASSERT_EQ(e.folded().size(), folded.size());
  for (std::size_t i = 0; i < folded.size(); ++i)
    ASSERT_EQ(std::memcmp(e.folded()[i].data(), folded[i].data(),
                          folded[i].size() * sizeof(double)),
              0)
        << "row " << i;
  const auto features = compute_freq_features(zscored);
  ASSERT_EQ(e.freq_features().size(), features.size());
  EXPECT_EQ(std::memcmp(e.freq_features().data(), features.data(),
                        features.size() * sizeof(FreqFeatures)),
            0);

  const auto want = obs::check_zscore_rows(zscored);
  const auto got = verdict_named("zscore_normalized");
  EXPECT_TRUE(same_bits(got.value, want.value));
  EXPECT_EQ(got.passed, want.passed);
  EXPECT_EQ(got.detail, want.detail);

  // The §5.1 check's column mean, summed row by row over the whole city.
  std::vector<double> mean(zscored.front().size(), 0.0);
  for (const auto& row : zscored)
    for (std::size_t s = 0; s < row.size(); ++s) mean[s] += row[s];
  for (auto& v : mean) v /= static_cast<double>(zscored.size());
  const double energy = 1.0 - energy_loss(mean, reconstruct_principal(mean));
  EXPECT_TRUE(same_bits(verdict_named("dft_energy_principal").value, energy));
  obs::QualityBoard::instance().clear();
}

TEST(Experiment, PinsTheTwoThousandTowerTraining) {
  // The labels and the clustered folds of a 2,000-tower training at the
  // default knobs, pinned by FNV-1a 64 over their bytes in row order.
  ExperimentConfig config;
  config.seed = 2015;
  config.n_towers = 2000;
  const auto e = Experiment::run(config);
  ASSERT_EQ(e.n_clusters(), 5u);
  EXPECT_EQ(fnv1a(e.labels().data(), e.labels().size() * sizeof(int)),
            0x3c85ccd7ffc73a94ull);
  std::uint64_t folded = kFnv1aBasis;
  for (const auto& row : e.folded())
    folded = fnv1a(row.data(), row.size() * sizeof(double), folded);
  EXPECT_EQ(folded, 0xb2c5937a9e8a1138ull);
}

TEST(Experiment, ValidatesConfig) {
  ExperimentConfig tiny;
  tiny.n_towers = 5;
  EXPECT_THROW(Experiment::run(tiny), Error);
  ExperimentConfig bad_sweep;
  bad_sweep.k_min = 8;
  bad_sweep.k_max = 3;
  EXPECT_THROW(Experiment::run(bad_sweep), Error);
}

}  // namespace
}  // namespace cellscope
