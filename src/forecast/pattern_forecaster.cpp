#include "forecast/pattern_forecaster.h"

#include <limits>

#include "common/error.h"
#include "common/stats.h"
#include "common/time_grid.h"

namespace cellscope {

PatternForecaster::PatternForecaster(
    std::vector<std::vector<double>> templates)
    : templates_(std::move(templates)) {
  CS_CHECK_MSG(!templates_.empty(), "need at least one template");
  for (const auto& t : templates_)
    CS_CHECK_MSG(t.size() == static_cast<std::size_t>(TimeGrid::kSlotsPerWeek),
                 "templates must cover one 1008-slot week");
}

std::size_t PatternForecaster::match_or_prior(std::span<const double> history,
                                              std::size_t prior) const {
  CS_CHECK_MSG(prior < templates_.size(), "prior template out of range");
  if (history.size() < kMinMatchSlots) return prior;
  return match(history);
}

std::size_t PatternForecaster::match(std::span<const double> history) const {
  CS_CHECK_MSG(history.size() >= kMinMatchSlots,
               "matching needs at least half a day of history");
  // Compare shapes: z-score the history and the template restricted to
  // the same slots-of-week.
  const auto z_history = zscore(history);
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_template = 0;
  for (std::size_t t = 0; t < templates_.size(); ++t) {
    std::vector<double> segment;
    segment.reserve(history.size());
    for (std::size_t s = 0; s < history.size(); ++s)
      segment.push_back(
          templates_[t][s % static_cast<std::size_t>(TimeGrid::kSlotsPerWeek)]);
    const auto z_segment = zscore(segment);
    const double d = squared_distance(z_history, z_segment);
    if (d < best) {
      best = d;
      best_template = t;
    }
  }
  return best_template;
}

std::vector<double> PatternForecaster::forecast(
    std::span<const double> history, std::size_t horizon,
    std::size_t chosen) const {
  CS_CHECK_MSG(history.size() >= kMinMatchSlots,
               "forecasting needs at least half a day of history");
  CS_CHECK_MSG(chosen < templates_.size(), "template index out of range");
  const auto& pattern = templates_[chosen];

  // De-normalization: match the history's mean and dispersion to the
  // template's over the same covered slots.
  std::vector<double> covered;
  covered.reserve(history.size());
  for (std::size_t s = 0; s < history.size(); ++s)
    covered.push_back(
        pattern[s % static_cast<std::size_t>(TimeGrid::kSlotsPerWeek)]);
  const double history_mean = mean(history);
  const double history_sd = stddev(history);
  const double template_mean = mean(covered);
  const double template_sd = stddev(covered);
  const double scale =
      template_sd > 0.0 ? history_sd / template_sd : 0.0;

  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    const double t =
        pattern[(history.size() + h) %
                static_cast<std::size_t>(TimeGrid::kSlotsPerWeek)];
    out.push_back(std::max(0.0, history_mean + scale * (t - template_mean)));
  }
  return out;
}

}  // namespace cellscope
