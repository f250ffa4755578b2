// Pattern-template forecasting — cold-start prediction for towers with
// very little history.
//
// The clustering result gives five reusable weekly templates (z-scored
// cluster centroids). For a tower with only a day or two of observations,
// match it to the best template, estimate its own mean/scale from the
// short history, and predict template * scale + mean. This is the
// operational payoff of the paper's claim that five patterns cover all
// towers: a brand-new tower can be provisioned from its first hours.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cellscope {

/// A library of weekly traffic templates (z-scored, 1008 slots each),
/// typically the labeled cluster centroids of an Experiment.
class PatternForecaster {
 public:
  /// Minimum history for shape matching: half a day (72 slots). Below
  /// this, a z-scored shape comparison is meaningless and callers fall
  /// back to a prior (match_or_prior).
  static constexpr std::size_t kMinMatchSlots = 72;

  /// `templates` must be non-empty, each of 1008 slots.
  explicit PatternForecaster(std::vector<std::vector<double>> templates);

  /// Index of the template best matching a (partial) history: the least
  /// squared distance between the z-scored history and the z-scored
  /// template over the slots the history covers (first index on ties; a
  /// z-score with sd 0 is all zero), so a single day is enough to pick a
  /// template. Allocates nothing: the covered template moments come
  /// from per-template prefix sums, and the cross term from one pass
  /// over the history per template. Requires at least kMinMatchSlots of
  /// history.
  std::size_t match(std::span<const double> history) const;

  /// Cold-start-safe matching: match(history) when the history reaches
  /// kMinMatchSlots, otherwise the caller-supplied `prior` template
  /// (typically the most populous training cluster). Never produces NaN:
  /// constant or all-zero histories z-score to zero vectors and still
  /// compare finitely. Shared by the stream OnlineClassifier for towers
  /// with under a day of observations (DESIGN.md §9).
  std::size_t match_or_prior(std::span<const double> history,
                             std::size_t prior) const;

  /// Forecasts `horizon` slots following `history`: template `chosen`
  /// (typically match(history)) de-normalized with the history's mean and
  /// standard deviation. Requires at least half a day (72 slots) of
  /// history and chosen < template_count().
  std::vector<double> forecast(std::span<const double> history,
                               std::size_t horizon, std::size_t chosen) const;

  std::size_t template_count() const { return templates_.size(); }

 private:
  std::vector<std::vector<double>> templates_;
  /// Per template: its week mean, and prefix sums over the slots of the
  /// week of the template less that mean and of its square (entry j sums
  /// slots [0, j), so 1009 entries each). Centring keeps the covered
  /// variance E[x²] − E[x]² clear of cancellation.
  std::vector<double> week_mean_;
  std::vector<std::vector<double>> prefix_sum_;
  std::vector<std::vector<double>> prefix_sq_;
};

}  // namespace cellscope
