// train_city — an analyst trains the five-pattern model at the paper's
// 9,600 towers: Experiment::run (city, intensity, POIs, vectorize, z-score,
// fold, distance, NN-chain linkage, DBI sweep, labeling) and then
// snapshot_model. The O(n²) ml layers dominate; stream, server and the
// trace codecs stay idle.
//
// Untraced: repeated trainings until --seconds have passed (at least one);
// result_s is their median. Traced: the same layer calls made one by one
// from here, each inside a span, checked label for label against an
// untraced Experiment::run in the same process, whose time gives the
// tracing overhead.
#include <algorithm>

#include "analysis/labeling.h"
#include "analysis/poi_features.h"
#include "bench.h"
#include "city/deployment.h"
#include "core/experiment.h"
#include "mapred/thread_pool.h"
#include "ml/distance.h"
#include "ml/hierarchical.h"
#include "ml/validity.h"
#include "obs/metrics.h"
#include "pipeline/vectorizer.h"
#include "stream/online_classifier.h"

namespace perfbench {

namespace {

using namespace cellscope;

constexpr std::size_t kCityTowers = 9600;
/// Set-up warms the pool, allocator and SIMD dispatch with a small
/// training; it is the fixture cost this workload has.
constexpr std::size_t kWarmupTowers = 1200;
constexpr std::size_t kPaperClusters = 5;

ExperimentConfig city_config(std::uint64_t seed, std::size_t towers) {
  ExperimentConfig config;
  config.seed = seed;
  config.n_towers = towers;
  return config;
}

/// Experiment::run's stages, called one by one with a span around each
/// (the seed derivations mirror core/experiment.cpp). Returns the labels
/// at the chosen cut, and the distance pairs computed (the library's
/// cellscope.ml.distance_pairs counter across the distance call) in
/// `distance_pairs`.
std::vector<int> traced_layers(const ExperimentConfig& config,
                               SpanRecorder& rec, std::uint64_t& distance_pairs) {
  ThreadPool pool(configured_thread_count());
  std::unique_ptr<CityModel> city;
  std::vector<Tower> towers;
  {
    ScopedSpan span(&rec, "city.deploy");
    city = std::make_unique<CityModel>(CityModel::create_default(config.seed));
    DeploymentOptions deployment;
    deployment.n_towers = config.n_towers;
    deployment.seed = config.seed ^ 0xD1B54A32D192ED03ULL;
    towers = deploy_towers(*city, deployment);
  }
  std::unique_ptr<IntensityModel> intensity;
  {
    ScopedSpan span(&rec, "traffic.intensity");
    IntensityOptions options = config.intensity;
    options.seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
    intensity = std::make_unique<IntensityModel>(
        IntensityModel::create(towers, options));
  }
  std::unique_ptr<PoiDatabase> pois;
  {
    ScopedSpan span(&rec, "city.poi_generate");
    PoiGenerationOptions options;
    options.scale = config.poi_scale;
    options.seed = config.seed ^ 0xBF58476D1CE4E5B9ULL;
    pois = std::make_unique<PoiDatabase>(PoiDatabase::generate(
        *city, towers, intensity->mixtures(), options));
  }
  TrafficMatrix matrix;
  {
    ScopedSpan span(&rec, "pipeline.vectorize");
    matrix = vectorize_intensity(towers, *intensity,
                                 config.seed ^ 0x94D049BB133111EBULL);
  }
  std::vector<std::vector<double>> zscored;
  {
    ScopedSpan span(&rec, "pipeline.zscore");
    zscored = zscore_rows(matrix, &pool);
  }
  std::vector<std::vector<double>> folded;
  {
    ScopedSpan span(&rec, "pipeline.fold");
    folded = fold_to_week(zscored, &pool);
  }
  std::optional<DistanceMatrix> distances;
  {
    auto& pairs = obs::MetricsRegistry::instance().counter(
        "cellscope.ml.distance_pairs");
    const std::uint64_t pairs_before = pairs.value();
    {
      ScopedSpan span(&rec, "ml.distance");
      distances.emplace(DistanceMatrix::compute(folded, &pool));
    }
    distance_pairs = pairs.value() - pairs_before;
  }
  std::optional<Dendrogram> dendrogram;
  {
    ScopedSpan span(&rec, "ml.linkage");
    dendrogram.emplace(Dendrogram::run(std::move(*distances), Linkage::kAverage));
    distances.reset();
  }
  std::vector<int> labels;
  {
    ScopedSpan span(&rec, "ml.dbi_sweep");
    const auto min_cluster_size = static_cast<std::size_t>(
        std::max(2.0, config.min_cluster_fraction *
                          static_cast<double>(config.n_towers)));
    const auto sweep = dbi_sweep(*dendrogram, folded, config.k_min,
                                 std::min(config.k_max, config.n_towers - 1),
                                 min_cluster_size, &pool);
    labels = dendrogram->cut_k(best_cut(sweep).k);
  }
  std::vector<std::array<std::size_t, kNumPoiTypes>> counts;
  {
    ScopedSpan span(&rec, "analysis.poi_count");
    counts = poi_counts_for_towers(*pois, towers);
  }
  {
    ScopedSpan span(&rec, "analysis.label");
    const auto labeling =
        label_clusters_by_poi(normalized_poi_by_cluster(counts, labels));
    std::vector<std::size_t> row_tower(matrix.n());
    for (std::size_t i = 0; i < row_tower.size(); ++i) row_tower[i] = i;
    validate_labels(labels, labeling, row_tower, towers);
  }
  return labels;
}

}  // namespace

void run_train_city(const Args& args, Outcome& out, SpanRecorder* rec) {
  const double setup_s = timed_setup(kSetupReps, [&] {
    const auto warm = Experiment::run(city_config(args.seed, kWarmupTowers));
    snapshot_model(warm);
  });

  const auto config = city_config(args.seed, kCityTowers);
  reset_peak_rss();
  const auto check_model = [&](const Experiment& experiment,
                               const ModelSnapshot& model) {
    ++out.attempted;
    out.check(experiment.n_clusters() == kPaperClusters,
              "train_city: DBI chose k=" +
                  std::to_string(experiment.n_clusters()) + ", expected 5");
    out.check(model.centroids.size() == experiment.n_clusters(),
              "train_city: snapshot does not cover every cluster");
  };

  if (rec == nullptr) {
    std::vector<double> train_s;
    std::vector<int> labels;
    const auto t_begin = Clock::now();
    do {
      const auto t0 = Clock::now();
      const auto experiment = Experiment::run(config);
      const auto model = snapshot_model(experiment);
      train_s.push_back(seconds_since(t0));
      check_model(experiment, model);
      if (labels.empty()) labels = experiment.labels();
      out.check(experiment.labels() == labels,
                "train_city: repeated training changed the labels");
    } while (seconds_since(t_begin) < args.seconds);
    const double result_s = median(train_s);
    out.set("setup_s", setup_s, "s");
    out.set("result_s", result_s, "s");
    out.set("rate_per_s", kCityTowers / result_s, "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("setup_s", setup_s, "s");
    out.note("train_s", result_s, "s");
    out.note("towers_per_s", kCityTowers / result_s, "1/s");
    out.note("fail_ratio", 0.0, "ratio");
    out.note("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced: the layer calls first (their products freed before the
  // oracle runs, to bound memory), then one untraced Experiment::run as
  // the label oracle and overhead baseline, then snapshot_model on it —
  // its first call on that experiment, as in an untraced training.
  std::vector<int> traced;
  std::uint64_t distance_pairs = 0;
  {
    ScopedSpan root(rec, "train");
    traced = traced_layers(config, *rec, distance_pairs);
  }
  const auto t0 = Clock::now();
  const auto experiment = Experiment::run(config);
  const double run_ms = seconds_since(t0) * 1e3;
  {
    ScopedSpan root(rec, "train");
    ScopedSpan span(rec, "stream.model_snapshot");
    check_model(experiment, snapshot_model(experiment));
  }
  out.check(traced == experiment.labels(),
            "train_city: per-layer calls disagree with Experiment::run");
  const double snapshot_ms = rec->total_ms("stream.model_snapshot");
  const double untraced_ms = run_ms + snapshot_ms;
  out.set("trace.overhead_share",
          (rec->total_ms("train") - untraced_ms) / untraced_ms, "ratio");
  out.set("trace.uncovered_share", rec->uncovered_share("train"), "ratio");
  out.note("setup_s", setup_s, "s");
  out.note("train_s (untraced)", untraced_ms / 1e3, "s");
  out.note("train_s (traced)", rec->total_ms("train") / 1e3, "s");
  for (const char* layer :
       {"city.deploy", "city.poi_generate", "traffic.intensity",
        "pipeline.vectorize", "pipeline.zscore", "pipeline.fold",
        "ml.distance", "ml.linkage", "ml.dbi_sweep", "analysis.poi_count",
        "analysis.label", "stream.model_snapshot"})
    out.set(std::string(layer) + "_ms", rec->total_ms(layer), "ms");
  out.set("ml.distance_pairs", static_cast<double>(distance_pairs), "count");
}

}  // namespace perfbench
