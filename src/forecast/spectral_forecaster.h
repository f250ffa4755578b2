// Spectral forecasting — the paper's frequency-domain model put to work.
//
// §5.1 shows traffic is captured by a handful of periodic components; a
// forecaster follows directly: average the history into one mean week,
// keep only the dominant weekly harmonics (DC, the daily line and its
// first harmonics, and the weekly fundamental), and tile the smoothed
// week forward. The harmonic truncation removes sampling noise that the
// seasonal-naive baseline replays verbatim — which is exactly where the
// skill comes from.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cellscope {

/// Spectral forecaster options.
struct SpectralForecastOptions {
  /// Number of leading weekly harmonics kept (k = 1..n on the 1008-slot
  /// week; the daily line is k = 7, half-day k = 14). 21 keeps everything
  /// through the 3-per-day harmonic.
  std::size_t keep_harmonics = 21;
};

/// Forecasts `horizon` slots following `history`. Requires at least one
/// full week of history (the mean week needs every weekday represented).
std::vector<double> spectral_forecast(std::span<const double> history,
                                      std::size_t horizon,
                                      const SpectralForecastOptions& options = {});

}  // namespace cellscope
