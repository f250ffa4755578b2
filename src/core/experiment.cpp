#include "core/experiment.h"

#include "analysis/poi_features.h"
#include "common/error.h"
#include "common/stats.h"
#include "common/time_grid.h"
#include "dsp/spectrum.h"
#include "mapred/thread_pool.h"
#include "ml/distance.h"
#include "obs/log.h"
#include "obs/quality.h"
#include "obs/report.h"
#include "obs/timer.h"
#include "pipeline/vectorizer.h"

namespace {

/// Rows z-scored per step of stage 4: 256 rows of 4032 slots hold 8 MB,
/// whatever the city size.
constexpr std::size_t kZscoreBlockRows = 256;

/// Slots per task of the column-sum step; 63 ranges cover the 4032 slots.
constexpr std::size_t kColumnSumSlots = 64;
static_assert(cellscope::TimeGrid::kSlots % kColumnSumSlots == 0);

/// Fraction of signal energy the paper's three principal components
/// retain on the mean z-scored series (the aggregate weekly pattern) —
/// the quantity behind the §5.1 "<6 % loss" claim.
double principal_energy_fraction(const std::vector<double>& column_mean) {
  return 1.0 - cellscope::energy_loss(
                   column_mean, cellscope::reconstruct_principal(column_mean));
}

}  // namespace

namespace cellscope {

CityRecipe city_recipe(const ExperimentConfig& config) {
  CityRecipe recipe;
  recipe.city_seed = config.seed;
  recipe.deployment.n_towers = config.n_towers;
  recipe.deployment.seed = config.seed ^ 0xD1B54A32D192ED03ULL;
  recipe.intensity = config.intensity;
  recipe.intensity.seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
  return recipe;
}

Experiment Experiment::run(const ExperimentConfig& config) {
  CS_CHECK_MSG(config.n_towers >= 20,
               "experiments need at least 20 towers to cluster meaningfully");
  CS_CHECK_MSG(config.k_min >= 2 && config.k_min <= config.k_max,
               "invalid DBI sweep bounds");

  // The vectorizer, the analytics stages and the POI counts share one
  // pool (the NN-chain linkage stays serial), sized by the
  // CELLSCOPE_THREADS environment variable (DESIGN.md §8). Results are
  // bit-identical for any worker count.
  ThreadPool pool(configured_thread_count());

  obs::log_info("experiment.start",
                {{"towers", config.n_towers},
                 {"seed", config.seed},
                 {"threads", pool.thread_count()}});
  // With CELLSCOPE_RUN_REPORT set, a provenance report (config, stage
  // spans, metrics, quality verdicts) is written at process exit; arming
  // before the first stage turns span recording on for the whole run.
  obs::arm_run_report(
      "experiment",
      {{"towers", std::to_string(config.n_towers)},
       {"seed", std::to_string(config.seed)},
       {"k_min", std::to_string(config.k_min)},
       {"k_max", std::to_string(config.k_max)},
       {"min_cluster_fraction", std::to_string(config.min_cluster_fraction)},
       {"poi_scale", std::to_string(config.poi_scale)}});
  obs::ScopedTimer total_timer;

  Experiment e;
  e.config_ = config;

  const CityRecipe recipe = city_recipe(config);
  // 1. City and towers.
  {
    obs::StageSpan span("pipeline.city_deploy");
    e.city_ = std::make_unique<CityModel>(
        CityModel::create_default(recipe.city_seed));
    e.towers_ = deploy_towers(*e.city_, recipe.deployment);
    span.annotate({"towers", e.towers_.size()});
  }

  // 2. Latent intensity models, then POIs conditioned on traffic mixtures.
  {
    obs::StageSpan span("pipeline.intensity_poi");
    e.intensity_ = std::make_unique<IntensityModel>(
        IntensityModel::create(e.towers_, recipe.intensity));
    PoiGenerationOptions poi_options;
    poi_options.scale = config.poi_scale;
    poi_options.seed = config.seed ^ 0xBF58476D1CE4E5B9ULL;
    e.pois_ = std::make_unique<PoiDatabase>(PoiDatabase::generate(
        *e.city_, e.towers_, e.intensity_->mixtures(), poi_options));
    span.annotate({"towers", e.towers_.size()});
    span.annotate({"pois", e.pois_->pois().size()});
  }

  // 3. Traffic matrix (the §3.2 vectorizer).
  {
    obs::StageSpan span("pipeline.vectorize");
    e.matrix_ = vectorize_intensity(e.towers_, *e.intensity_,
                                    config.seed ^ 0x94D049BB133111EBULL,
                                    &pool);
    obs::QualityBoard::instance().add_check(
        "pipeline.vectorize", "matrix_finite", obs::Severity::kFail,
        [&rows = e.matrix_.rows] { return obs::check_finite_rows(rows); });
    span.annotate({"towers", e.towers_.size()});
    span.annotate({"rows", e.matrix_.n()});
  }

  // 4. Normalization, one block of rows at a time. Each row is z-scored
  // once into its slot of the block and read there for its fold
  // (DESIGN.md §5.2), its frequency features and its zscore_normalized
  // deviation; the block then joins the column sum behind the §5.1
  // energy check. The z-scored city is never held, so the O(n²) distance
  // matrix does not land on top of it.
  double principal_energy = 0.0;
  {
    obs::StageSpan span("pipeline.zscore");
    const std::size_t n = e.matrix_.n();
    e.folded_.resize(n);
    e.freq_features_.resize(n);
    std::vector<double> deviations(n);
    std::vector<double> column_mean(TimeGrid::kSlots, 0.0);
    std::vector<std::vector<double>> block(std::min(n, kZscoreBlockRows));
    for (std::size_t first = 0; first < n; first += kZscoreBlockRows) {
      const std::size_t rows = std::min(kZscoreBlockRows, n - first);
      for_each_index(&pool, rows, [&](std::size_t j) {
        const std::size_t i = first + j;
        block[j] = zscore(e.matrix_.rows[i]);
        e.folded_[i] = fold_week(block[j]);
        e.freq_features_[i] = compute_freq_features(block[j]);
        deviations[i] = obs::zscore_row_deviation(block[j]);
      });
      // Every slot adds the rows in ascending order, block after block:
      // the bits of one `mean[s] += row[s]` sweep over the whole city.
      for_each_index(&pool, TimeGrid::kSlots / kColumnSumSlots,
                     [&](std::size_t range) {
                       const std::size_t lo = range * kColumnSumSlots;
                       for (std::size_t j = 0; j < rows; ++j)
                         for (std::size_t s = lo; s < lo + kColumnSumSlots;
                              ++s)
                           column_mean[s] += block[j][s];
                     });
    }
    for (auto& v : column_mean) v /= static_cast<double>(n);
    principal_energy = principal_energy_fraction(column_mean);
    obs::QualityBoard::instance().add_check(
        "pipeline.zscore", "zscore_normalized", obs::Severity::kFail,
        [worst = obs::worst_deviation(deviations)] {
          return obs::check_zscore_worst(worst);
        });
    span.annotate({"rows", n});
  }

  // 5. Clustering + metric tuner, on the fold; the DBI sweep uses the
  // same representation the dendrogram was built on.
  {
    obs::StageSpan span("pipeline.cluster_tune");
    e.dendrogram_ = std::make_unique<Dendrogram>(Dendrogram::run(
        DistanceMatrix::compute(e.folded_, &pool), Linkage::kAverage));
    const auto min_cluster_size = static_cast<std::size_t>(
        std::max(2.0, config.min_cluster_fraction *
                          static_cast<double>(config.n_towers)));
    e.sweep_ = dbi_sweep(*e.dendrogram_, e.folded_, config.k_min,
                         std::min(config.k_max, config.n_towers - 1),
                         min_cluster_size, &pool);
    e.chosen_ = best_cut(e.sweep_);
    e.labels_ = e.dendrogram_->cut_k(e.chosen_.k);
    auto& board = obs::QualityBoard::instance();
    board.add_check("pipeline.cluster_tune", "cluster_min_population",
                    obs::Severity::kWarn,
                    [&labels = e.labels_, min_cluster_size] {
                      return obs::check_min_population(labels,
                                                       min_cluster_size);
                    });
    board.add_check("pipeline.cluster_tune", "dbi_sane",
                    obs::Severity::kFail,
                    [dbi = e.chosen_.dbi] { return obs::check_dbi(dbi); });
    board.add_check("pipeline.cluster_tune", "dft_energy_principal",
                    obs::Severity::kWarn, [principal_energy] {
                      return obs::check_energy_fraction(principal_energy);
                    });
    span.annotate({"towers", e.towers_.size()});
    span.annotate({"k", e.chosen_.k});
  }

  // The metric tuner's choice, explainable from the run log alone: one
  // line per candidate cut plus the chosen minimum.
  for (const auto& point : e.sweep_) {
    obs::log_info("dbi_sweep.point", {{"k", point.k},
                                      {"dbi", point.dbi},
                                      {"threshold", point.threshold},
                                      {"valid", point.valid},
                                      {"chosen", point.k == e.chosen_.k}});
  }
  obs::log_info("dbi_sweep.chosen", {{"k", e.chosen_.k},
                                     {"dbi", e.chosen_.dbi},
                                     {"threshold", e.chosen_.threshold}});

  // 6. POI labeling + validation.
  {
    obs::StageSpan span("pipeline.label_validate");
    e.poi_counts_ =
        poi_counts_for_towers(*e.pois_, e.towers_, kPoiRadiusM, &pool);
    const auto normalized =
        normalized_poi_by_cluster(e.poi_counts_, e.labels_);
    e.labeling_ = label_clusters_by_poi(normalized);
    std::vector<std::size_t> row_tower(e.matrix_.n());
    for (std::size_t i = 0; i < row_tower.size(); ++i) row_tower[i] = i;
    e.validation_ = validate_labels(e.labels_, e.labeling_, row_tower,
                                    e.towers_);
    span.annotate({"towers", e.towers_.size()});
    span.annotate({"clusters", e.n_clusters()});
  }

  obs::log_info("experiment.done", {{"towers", config.n_towers},
                                    {"k", e.chosen_.k},
                                    {"wall_ms", total_timer.elapsed_ms()}});
  return e;
}

std::optional<std::size_t> Experiment::cluster_of_region(
    FunctionalRegion region) const {
  for (std::size_t c = 0; c < labeling_.region_of_cluster.size(); ++c)
    if (labeling_.region_of_cluster[c] == region) return c;
  return std::nullopt;
}

std::vector<std::size_t> Experiment::rows_of_cluster(
    std::size_t cluster) const {
  CS_CHECK_MSG(cluster < n_clusters(), "cluster index out of range");
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < labels_.size(); ++i)
    if (static_cast<std::size_t>(labels_[i]) == cluster) rows.push_back(i);
  return rows;
}

std::vector<double> Experiment::cluster_aggregate(std::size_t cluster) const {
  return aggregate_series(matrix_, rows_of_cluster(cluster));
}

std::vector<double> Experiment::region_aggregate(
    FunctionalRegion region) const {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    const auto c = static_cast<std::size_t>(labels_[i]);
    if (labeling_.region_of_cluster[c] == region) rows.push_back(i);
  }
  CS_CHECK_MSG(!rows.empty(), "no towers labeled with region " +
                                  region_name(region));
  return aggregate_series(matrix_, rows);
}

std::vector<double> Experiment::total_aggregate() const {
  return aggregate_series(matrix_);
}

const std::array<std::size_t, 4>& Experiment::representatives() const {
  if (!representatives_) {
    std::vector<std::array<double, 3>> qp_features;
    qp_features.reserve(freq_features_.size());
    for (const auto& f : freq_features_) qp_features.push_back(f.qp_feature());

    ThreadPool pool(configured_thread_count());

    std::array<std::size_t, 4> reps{};
    for (int r = 0; r < 4; ++r) {
      const auto cluster =
          cluster_of_region(static_cast<FunctionalRegion>(r));
      CS_CHECK_MSG(cluster.has_value(),
                   "pure region has no cluster: " +
                       region_name(static_cast<FunctionalRegion>(r)));
      reps[r] = find_representative(qp_features, labels_,
                                    static_cast<int>(*cluster), {}, &pool);
    }
    representatives_ = reps;
  }
  return *representatives_;
}

}  // namespace cellscope
