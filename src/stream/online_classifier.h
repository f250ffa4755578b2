// Online tower classification against a trained batch model.
//
// A ModelSnapshot freezes what one batch Experiment learned: the
// per-cluster folded-week centroids (z-scored, 1008 slots), the clusters'
// functional-region labels and populations, and — when the experiment
// found all four pure regions — the (A28, P28, A56) frequency features of
// the four primary components (§5.3). The OnlineClassifier then assigns
// any live TowerWindow a pattern label by nearest centroid on the folded
// week, with a confidence from the convex decomposition residual: a tower
// whose frequency feature sits well inside the primary-component polygon
// (small residual) is confidently one of the paper's five patterns.
//
// Cold start: a window with under one day of observed bins cannot be
// folded meaningfully, so classification falls back to
// PatternForecaster::match_or_prior over the short observed history — the
// same shape-matching path the batch cold-start forecaster uses — with
// the most populous training cluster as the prior. Never NaN, even on an
// empty window.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include <span>

#include "analysis/labeling.h"
#include "forecast/pattern_forecaster.h"
#include "stream/ingestor.h"
#include "stream/tower_window.h"

namespace cellscope {

class Experiment;

/// Frozen batch model the online classifier scores against.
struct ModelSnapshot {
  /// Per-cluster folded z-scored mean weeks (1008 slots each).
  std::vector<std::vector<double>> centroids;
  /// Functional region of each cluster (§3.3 labeling).
  std::vector<FunctionalRegion> regions;
  /// Training towers per cluster; the argmax is the cold-start prior.
  std::vector<std::size_t> populations;
  /// (A28, P28, A56) of the four primary components in pure-region order,
  /// valid only when has_primaries — small experiments may not produce
  /// all four pure regions, and the classifier then falls back to a
  /// distance-based confidence.
  bool has_primaries = false;
  std::array<std::array<double, 3>, 4> primary_features{};
};

/// Extracts a ModelSnapshot from a completed Experiment: centroids are
/// the per-cluster means of the folded z-scored rows, regions/populations
/// come from the labeling, and the primary features from the §5.3
/// representatives when all four pure regions exist.
ModelSnapshot snapshot_model(const Experiment& experiment);

/// One tower's online classification.
struct Classification {
  std::size_t cluster = 0;
  FunctionalRegion region = FunctionalRegion::kComprehensive;
  /// Squared distance to the chosen centroid in folded-week space.
  double distance = 0.0;
  /// Confidence in [0, 1]: 1 / (1 + convex-decomposition residual) when
  /// the model carries primary features, 1 / (1 + sqrt(distance))
  /// otherwise, and exactly 0 for cold starts.
  double confidence = 0.0;
  /// True when the window had under a day of observations and the label
  /// is the match_or_prior fallback.
  bool cold_start = false;
};

/// Stateless scorer: every classify() call reads the same frozen model,
/// so re-evaluating towers on a cadence is safe from any thread.
class OnlineClassifier {
 public:
  /// Requires at least one centroid; centroids must be 1008 slots and
  /// regions/populations must align with them.
  explicit OnlineClassifier(ModelSnapshot model);

  /// Windows with at least this many observed bins classify by nearest
  /// centroid; below it they are cold starts.
  static constexpr std::size_t kColdStartSlots =
      static_cast<std::size_t>(TimeGrid::kSlotsPerDay);

  Classification classify(const TowerWindow& window) const;

  /// Classifies every window of the ingestor (ascending tower id),
  /// parallelized over towers when a pool is given. One
  /// cellscope.stream.classify_passes counter bump per call;
  /// cellscope.stream.cold_starts counts fallback rows.
  std::vector<std::pair<std::uint32_t, Classification>> classify_all(
      const StreamIngestor& ingestor, ThreadPool* pool = nullptr) const;

  /// Nearest centroid to a folded week (1008 slots): an ascending-index
  /// scan with strict <, so ties keep the lowest index. *distance_out
  /// (optional) gets the squared distance. This is the single scoring
  /// rule shared by classify() and the serving plane's /classify
  /// endpoint. Throws cellscope::Error when the query's dimension differs
  /// from the centroids'.
  std::size_t nearest_centroid(std::span<const double> folded,
                               double* distance_out = nullptr) const;

  /// The cold-start prior: cluster with the largest training population.
  std::size_t prior_cluster() const { return prior_; }

  const ModelSnapshot& model() const { return model_; }

  /// The centroid-template forecaster backing cold starts — also the
  /// serving plane's /towers/:id/forecast engine (templates align with
  /// model().centroids, so a matched template indexes regions too).
  const PatternForecaster& forecaster() const { return forecaster_; }

 private:
  ModelSnapshot model_;
  PatternForecaster forecaster_;  // templates = the centroids
  std::size_t prior_ = 0;
};

}  // namespace cellscope
