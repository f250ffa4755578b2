#include "forecast/spectral_forecaster.h"

#include "common/error.h"
#include "common/time_grid.h"
#include "dsp/spectrum.h"

namespace cellscope {

namespace {

/// Number of leading weekly harmonics kept (k = 1..n on the 1008-slot
/// week; the daily line is k = 7, half-day k = 14). 21 keeps everything
/// through the 3-per-day harmonic.
constexpr std::size_t kKeepHarmonics = 21;

/// The smoothed mean week the forecaster tiles.
std::vector<double> spectral_mean_week(std::span<const double> history) {
  CS_CHECK_MSG(
      history.size() >= static_cast<std::size_t>(TimeGrid::kSlotsPerWeek),
      "spectral forecaster needs at least one week of history");

  // Mean week over all *complete* weeks in the history (partial tails
  // would bias weekday slots).
  const std::size_t weeks = history.size() / TimeGrid::kSlotsPerWeek;
  std::vector<double> week(TimeGrid::kSlotsPerWeek, 0.0);
  for (std::size_t w = 0; w < weeks; ++w)
    for (int s = 0; s < TimeGrid::kSlotsPerWeek; ++s)
      week[static_cast<std::size_t>(s)] +=
          history[w * TimeGrid::kSlotsPerWeek + static_cast<std::size_t>(s)];
  for (auto& v : week) v /= static_cast<double>(weeks);

  // Harmonic truncation: keep DC and the first kKeepHarmonics lines.
  std::vector<std::size_t> keep;
  const std::size_t max_k =
      std::min<std::size_t>(kKeepHarmonics, week.size() / 2);
  for (std::size_t k = 1; k <= max_k; ++k) keep.push_back(k);
  auto smoothed = reconstruct(week, keep);
  // Traffic is non-negative; the truncation can undershoot near deep
  // valleys.
  for (auto& v : smoothed) v = std::max(0.0, v);
  return smoothed;
}

}  // namespace

std::vector<double> spectral_forecast(std::span<const double> history,
                                      std::size_t horizon) {
  const auto week = spectral_mean_week(history);
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h)
    out.push_back(
        week[(history.size() + h) % static_cast<std::size_t>(
                                        TimeGrid::kSlotsPerWeek)]);
  return out;
}

}  // namespace cellscope
