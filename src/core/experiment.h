// The end-to-end CellScope experiment — the paper's full pipeline.
//
// One Experiment run performs, in order:
//   1. synthetic city construction and tower deployment (data substitute),
//   2. latent per-tower intensity models and POI generation,
//   3. the §3.2 vectorizer's row streams: one Rng per tower, forked in
//      tower order,
//   4. sampling and z-score normalization, one pooled pass over fixed
//      blocks of rows: each row's 10-minute vector is sampled from its
//      stream, checked for non-finite values, z-scored once and read for
//      its mean-week fold, its frequency features, its normalization
//      check and the column mean behind the §5.1 energy check; neither
//      the raw nor the z-scored city is held,
//   5. average-linkage hierarchical clustering of the fold with a
//      Davies-Bouldin sweep (§3.2 pattern identifier + metric tuner),
//   6. POI-based cluster labeling and ground-truth validation (§3.3),
// and exposes the products the analysis/bench layers read.
// Deterministic in ExperimentConfig::seed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/component_analysis.h"
#include "analysis/freq_features.h"
#include "analysis/labeling.h"
#include "city/city_model.h"
#include "city/deployment.h"
#include "city/poi.h"
#include "ml/hierarchical.h"
#include "ml/validity.h"
#include "pipeline/traffic_matrix.h"
#include "traffic/intensity_model.h"

namespace cellscope {

/// Configuration of one full experiment.
struct ExperimentConfig {
  std::uint64_t seed = 2015;
  /// Number of towers (the paper: 9,600; default sized for single-core
  /// runs — see DESIGN.md §5.2).
  std::size_t n_towers = 1200;
  /// Davies-Bouldin sweep bounds for the metric tuner.
  std::size_t k_min = 2;
  std::size_t k_max = 10;
  /// Noise floor for the tuner: cuts containing a cluster smaller than
  /// this fraction of all towers are rejected (singleton clusters have
  /// zero scatter and game the DBI).
  double min_cluster_fraction = 0.005;
  /// POI density multiplier.
  double poi_scale = 1.0;
  /// Latent intensity-model knobs.
  IntensityOptions intensity;
};

/// What a config fixes of stages 1–2 before any POI or training: the
/// city model's seed, the tower deployment and the intensity model's
/// options. Experiment::run builds its city, towers and intensity model
/// from these; a caller that needs only the city's towers and traffic
/// model (trace_convert synth) builds the same three from them.
struct CityRecipe {
  std::uint64_t city_seed = 0;
  DeploymentOptions deployment;
  IntensityOptions intensity;
};

/// The stage 1–2 recipe of `config` (its seed, tower count and
/// intensity knobs).
CityRecipe city_recipe(const ExperimentConfig& config);

/// A completed experiment with all intermediate products.
class Experiment {
 public:
  /// Runs the full pipeline.
  static Experiment run(const ExperimentConfig& config);

  const ExperimentConfig& config() const { return config_; }
  const CityModel& city() const { return *city_; }
  const std::vector<Tower>& towers() const { return towers_; }
  const IntensityModel& intensity() const { return *intensity_; }
  const PoiDatabase& pois() const { return *pois_; }

  /// Raw traffic matrix (row i corresponds to towers()[i]): what
  /// vectorize_intensity gives for the row streams stage 4 sampled, bit
  /// for bit. Training never holds it; it is built on the first call
  /// (310 MB at 9,600 towers) and kept. The first call is not
  /// thread-safe: make it before sharing the experiment across threads.
  const TrafficMatrix& matrix() const;

  /// Mean-week (1008-slot) folds of the z-scored rows — the
  /// representation the dendrogram and the DBI sweep clustered
  /// (DESIGN.md §5.2). The z-scored rows themselves are never held:
  /// zscore_rows over matrix() rebuilds them bit for bit.
  const std::vector<std::vector<double>>& folded() const { return folded_; }

  /// The clustering dendrogram (over folded()).
  const Dendrogram& dendrogram() const { return *dendrogram_; }

  /// The metric tuner's DBI sweep (Fig. 6a data).
  const std::vector<DbiSweepPoint>& dbi_sweep_result() const { return sweep_; }

  /// The chosen cut (minimum DBI).
  const DbiSweepPoint& chosen_cut() const { return chosen_; }

  /// Cluster labels per matrix row at the chosen cut.
  const std::vector<int>& labels() const { return labels_; }

  /// Number of clusters at the chosen cut.
  std::size_t n_clusters() const { return num_clusters(labels_); }

  /// Per-tower POI counts within 200 m (row-aligned).
  const std::vector<std::array<std::size_t, kNumPoiTypes>>& poi_counts()
      const {
    return poi_counts_;
  }

  /// POI-based region of each cluster (§3.3 labeling).
  const ClusterLabeling& labeling() const { return labeling_; }

  /// Validation of the labels against the latent ground truth.
  const LabelValidation& validation() const { return validation_; }

  /// First cluster labeled with `region`, or nullopt (clusters and
  /// regions correspond 1-1 when the tuner lands at k=5).
  std::optional<std::size_t> cluster_of_region(FunctionalRegion region) const;

  /// Row indices of one cluster.
  std::vector<std::size_t> rows_of_cluster(std::size_t cluster) const;

  /// Aggregate raw traffic of a cluster (bytes per slot). The three
  /// aggregates read matrix(), so the first builds it.
  std::vector<double> cluster_aggregate(std::size_t cluster) const;

  /// Aggregate raw traffic of all towers labeled `region`.
  std::vector<double> region_aggregate(FunctionalRegion region) const;

  /// City-wide aggregate traffic.
  std::vector<double> total_aggregate() const;

  /// Frequency features of every z-scored row (row-aligned).
  const std::vector<FreqFeatures>& freq_features() const {
    return freq_features_;
  }

  /// Row index of the most representative tower per pure region, in pure-
  /// region order (resident, transport, office, entertainment). Computed
  /// on first use in the (A28, P28, A56) space. Throws if some pure region
  /// has no cluster.
  const std::array<std::size_t, 4>& representatives() const;

  Experiment(Experiment&&) = default;
  Experiment& operator=(Experiment&&) = default;

 private:
  Experiment() = default;

  ExperimentConfig config_;
  std::unique_ptr<CityModel> city_;
  std::vector<Tower> towers_;
  std::unique_ptr<IntensityModel> intensity_;
  std::unique_ptr<PoiDatabase> pois_;
  std::vector<std::vector<double>> folded_;
  std::vector<FreqFeatures> freq_features_;
  std::unique_ptr<Dendrogram> dendrogram_;
  std::vector<DbiSweepPoint> sweep_;
  DbiSweepPoint chosen_;
  std::vector<int> labels_;
  std::vector<std::array<std::size_t, kNumPoiTypes>> poi_counts_;
  ClusterLabeling labeling_;
  LabelValidation validation_;

  // Lazy caches.
  mutable std::optional<TrafficMatrix> matrix_;
  mutable std::optional<std::array<std::size_t, 4>> representatives_;
};

}  // namespace cellscope
