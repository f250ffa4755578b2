#include "forecast/pattern_forecaster.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/stats.h"
#include "common/time_grid.h"

namespace cellscope {

namespace {

constexpr std::size_t kWeek = TimeGrid::kSlotsPerWeek;

/// Covered template variance, relative to the covered mean square, at
/// or below which the segment counts as constant. Variance from sums
/// carries rounding of a few hundred ulps of the mean square over a
/// week; 1e-12 (an sd of 1e-6 of the RMS) sits above that noise and far
/// below any real pattern.
constexpr double kConstantVariance = 1e-12;

}  // namespace

PatternForecaster::PatternForecaster(
    std::vector<std::vector<double>> templates)
    : templates_(std::move(templates)) {
  CS_CHECK_MSG(!templates_.empty(), "need at least one template");
  for (const auto& t : templates_) {
    CS_CHECK_MSG(t.size() == kWeek, "templates must cover one 1008-slot week");
    const double centre = mean(t);
    std::vector<double> sum(kWeek + 1, 0.0);
    std::vector<double> sq(kWeek + 1, 0.0);
    for (std::size_t j = 0; j < kWeek; ++j) {
      const double x = t[j] - centre;
      sum[j + 1] = sum[j] + x;
      sq[j + 1] = sq[j] + x * x;
    }
    week_mean_.push_back(centre);
    prefix_sum_.push_back(std::move(sum));
    prefix_sq_.push_back(std::move(sq));
  }
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
  // The distance between the z-scored history h and the z-scored covered
  // template t expands to Σh² + Σt² − 2Σh·t. A z-score's sum of squares
  // is the slot count n, or 0 when its sd is 0 (all zeros), and the cross
  // term is Σ(x − x̄)(y − ȳ) / (sd_x sd_y).
  const std::size_t n = history.size();
  const double count = static_cast<double>(n);
  const double history_mean = mean(history);
  const double history_sd = stddev(history);
  const std::size_t weeks = n / kWeek;
  const std::size_t rest = n % kWeek;
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_template = 0;
  for (std::size_t t = 0; t < templates_.size(); ++t) {
    // Covered slots: every slot of the week `weeks` times, plus [0, rest).
    const auto& sum = prefix_sum_[t];
    const auto& sq = prefix_sq_[t];
    const double covered_mean =
        (static_cast<double>(weeks) * sum[kWeek] + sum[rest]) / count;
    const double covered_square =
        (static_cast<double>(weeks) * sq[kWeek] + sq[rest]) / count;
    // A constant segment z-scores to zeros (see kConstantVariance).
    const double covered_var = covered_square - covered_mean * covered_mean;
    const double template_sd =
        covered_var > kConstantVariance * covered_square
            ? std::sqrt(covered_var)
            : 0.0;
    double d = (history_sd != 0.0 ? count : 0.0) +
               (template_sd != 0.0 ? count : 0.0);
    if (history_sd != 0.0 && template_sd != 0.0) {
      const auto& pattern = templates_[t];
      const double centre = week_mean_[t] + covered_mean;
      double cross = 0.0;
      for (std::size_t base = 0; base < n; base += kWeek) {
        const std::size_t len = std::min(kWeek, n - base);
        for (std::size_t j = 0; j < len; ++j)
          cross += (history[base + j] - history_mean) * (pattern[j] - centre);
      }
      d -= 2.0 * cross / (history_sd * template_sd);
    }
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
