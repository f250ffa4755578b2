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

/// Forecasts `horizon` slots following `history`, tiling the mean week
/// smoothed to DC plus its first 21 weekly harmonics. Requires at least
/// one full week of history (the mean week needs every weekday
/// represented).
std::vector<double> spectral_forecast(std::span<const double> history,
                                      std::size_t horizon);

}  // namespace cellscope
