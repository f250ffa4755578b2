#include "forecast/spectral_forecaster.h"

#include "common/error.h"
#include "common/time_grid.h"
#include "dsp/spectrum.h"

namespace cellscope {

std::vector<double> spectral_mean_week(std::span<const double> history,
                                       const SpectralForecastOptions& options) {
  CS_CHECK_MSG(
      history.size() >= static_cast<std::size_t>(TimeGrid::kSlotsPerWeek),
      "spectral forecaster needs at least one week of history");
  CS_CHECK_MSG(options.keep_harmonics >= 1, "keep at least one harmonic");

  // Mean week over all *complete* weeks in the history (partial tails
  // would bias weekday slots).
  const std::size_t weeks = history.size() / TimeGrid::kSlotsPerWeek;
  std::vector<double> week(TimeGrid::kSlotsPerWeek, 0.0);
  for (std::size_t w = 0; w < weeks; ++w)
    for (int s = 0; s < TimeGrid::kSlotsPerWeek; ++s)
      week[static_cast<std::size_t>(s)] +=
          history[w * TimeGrid::kSlotsPerWeek + static_cast<std::size_t>(s)];
  for (auto& v : week) v /= static_cast<double>(weeks);

  // Harmonic truncation: keep DC and the first keep_harmonics lines.
  std::vector<std::size_t> keep;
  const std::size_t max_k =
      std::min<std::size_t>(options.keep_harmonics, week.size() / 2);
  for (std::size_t k = 1; k <= max_k; ++k) keep.push_back(k);
  auto smoothed = reconstruct(week, keep);
  // Traffic is non-negative; the truncation can undershoot near deep
  // valleys.
  for (auto& v : smoothed) v = std::max(0.0, v);
  return smoothed;
}

std::vector<double> spectral_forecast(std::span<const double> history,
                                      std::size_t horizon,
                                      const SpectralForecastOptions& options) {
  const auto week = spectral_mean_week(history, options);
  std::vector<double> out;
  out.reserve(horizon);
  for (std::size_t h = 0; h < horizon; ++h)
    out.push_back(
        week[(history.size() + h) % static_cast<std::size_t>(
                                        TimeGrid::kSlotsPerWeek)]);
  return out;
}

}  // namespace cellscope
