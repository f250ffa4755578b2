#include "stream/online_classifier.h"

#include <algorithm>
#include <cmath>

#include "analysis/component_analysis.h"
#include "common/error.h"
#include "common/stats.h"
#include "core/experiment.h"
#include "ml/validity.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "pipeline/traffic_matrix.h"

namespace cellscope {

ModelSnapshot snapshot_model(const Experiment& experiment) {
  ModelSnapshot model;
  // Centroids: per-cluster means of the folded z-scored rows — the
  // representation the dendrogram clustered.
  model.centroids = cluster_centroids(experiment.folded(), experiment.labels());
  model.populations.assign(model.centroids.size(), 0);
  for (const int label : experiment.labels())
    ++model.populations[static_cast<std::size_t>(label)];
  model.regions = experiment.labeling().region_of_cluster;
  CS_CHECK_MSG(model.regions.size() == model.centroids.size(),
               "labeling does not cover every cluster");

  // Primary components need all four pure regions; smaller experiments
  // may label fewer, and the classifier then works without them.
  bool all_pure = true;
  for (int r = 0; r < 4; ++r)
    all_pure = all_pure &&
               experiment.cluster_of_region(static_cast<FunctionalRegion>(r))
                   .has_value();
  if (all_pure) {
    const auto& reps = experiment.representatives();
    const auto& features = experiment.freq_features();
    for (int r = 0; r < 4; ++r)
      model.primary_features[r] = features[reps[r]].qp_feature();
    model.has_primaries = true;
  }
  return model;
}

OnlineClassifier::OnlineClassifier(ModelSnapshot model)
    : model_(std::move(model)), forecaster_(model_.centroids) {
  CS_CHECK_MSG(!model_.centroids.empty(), "model needs at least one cluster");
  CS_CHECK_MSG(model_.regions.size() == model_.centroids.size() &&
                   model_.populations.size() == model_.centroids.size(),
               "model arrays must align with the centroids");
  prior_ = static_cast<std::size_t>(
      std::max_element(model_.populations.begin(), model_.populations.end()) -
      model_.populations.begin());
}

std::size_t OnlineClassifier::nearest_centroid(
    std::span<const double> folded, double* distance_out) const {
  const auto& centroids = model_.centroids;
  CS_CHECK_MSG(folded.size() == centroids[0].size(),
               "query dimension must match the centroids");
  double best = squared_distance(folded, centroids[0]);
  std::size_t best_index = 0;
  for (std::size_t c = 1; c < centroids.size(); ++c) {
    const double d = squared_distance(folded, centroids[c]);
    if (d < best) {
      best = d;
      best_index = c;
    }
  }
  if (distance_out != nullptr) *distance_out = best;
  return best_index;
}

Classification OnlineClassifier::classify(const TowerWindow& window) const {
  Classification out;
  if (window.observed_slots() < kColdStartSlots) {
    // Cold start: match the short observed history against the centroid
    // templates (the batch forecaster's shape match), or take the prior
    // outright when even that is too thin.
    out.cold_start = true;
    out.cluster = forecaster_.match_or_prior(window.observed_history(),
                                             prior_);
    out.region = model_.regions[out.cluster];
    out.distance =
        squared_distance(window.folded_week(), model_.centroids[out.cluster]);
    out.confidence = 0.0;
    return out;
  }

  const auto zscored = window.zscored();
  const auto folded = fold_week(zscored);
  double best = 0.0;
  const std::size_t best_cluster = nearest_centroid(folded, &best);
  out.cluster = best_cluster;
  out.region = model_.regions[best_cluster];
  out.distance = best;
  if (model_.has_primaries) {
    const auto feature = compute_freq_features(zscored).qp_feature();
    const auto decomposition =
        decompose_feature(feature, model_.primary_features);
    out.confidence = 1.0 / (1.0 + decomposition.residual);
  } else {
    out.confidence = 1.0 / (1.0 + std::sqrt(best));
  }
  return out;
}

std::vector<std::pair<std::uint32_t, Classification>>
OnlineClassifier::classify_all(const StreamIngestor& ingestor,
                               ThreadPool* pool) const {
  obs::StageSpan span("stream.classify", "stream", obs::LogLevel::kDebug);
  const auto ids = ingestor.tower_ids();
  std::vector<std::pair<std::uint32_t, Classification>> out(ids.size());
  for_each_index(pool, ids.size(), [&](std::size_t i) {
    out[i] = {ids[i], classify(ingestor.window_copy(ids[i]))};
  });
  std::size_t cold = 0;
  for (const auto& [id, c] : out)
    if (c.cold_start) ++cold;
  // Every window has now been (re)classified: resolve the ingestor's
  // offer-to-classify latency frontier and flush sampled classify spans.
  ingestor.note_classify_pass();
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("cellscope.stream.classify_passes").add(1);
  registry.counter("cellscope.stream.classifications").add(out.size());
  registry.counter("cellscope.stream.cold_starts").add(cold);
  span.annotate({"towers", out.size()});
  span.annotate({"cold_starts", cold});
  return out;
}

}  // namespace cellscope
