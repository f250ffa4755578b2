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

  /// Index of the template best matching a (partial) history. The match
  /// compares z-scored shapes over the slots the history covers, so a
  /// single day is enough to pick a template. Requires at least
  /// kMinMatchSlots of history.
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
};

}  // namespace cellscope
