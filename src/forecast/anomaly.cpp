#include "forecast/anomaly.h"

#include <cmath>

#include "common/error.h"
#include "common/stats.h"
#include "common/time_grid.h"

namespace cellscope {

namespace {

/// |z|-score threshold to open an interval.
constexpr double kThreshold = 4.0;
/// Slots the score may dip below threshold without closing the interval
/// (bridges brief returns to normal inside one event).
constexpr std::size_t kGapTolerance = 2;
/// Dispersion floor as a fraction of the slot mean, guarding slots
/// whose history happened to be near-constant.
constexpr double kMinRelativeSigma = 0.05;
/// Minimum interval length in slots. Physical events span multiple
/// 10-minute slots; single-slot exceedances are sampling noise (with
/// ~1000 slots per scored week, a 4-sigma spike occurs by chance).
constexpr std::size_t kMinDuration = 2;

}  // namespace

TrafficAnomalyDetector::TrafficAnomalyDetector(
    std::span<const double> history) {
  const auto week = static_cast<std::size_t>(TimeGrid::kSlotsPerWeek);
  CS_CHECK_MSG(history.size() >= 2 * week,
               "anomaly detector needs at least two weeks of history");

  means_.assign(week, 0.0);
  sigmas_.assign(week, 0.0);
  std::vector<std::size_t> counts(week, 0);
  for (std::size_t s = 0; s < history.size(); ++s) {
    means_[s % week] += history[s];
    ++counts[s % week];
  }
  for (std::size_t s = 0; s < week; ++s)
    means_[s] /= static_cast<double>(counts[s]);
  for (std::size_t s = 0; s < history.size(); ++s) {
    const double d = history[s] - means_[s % week];
    sigmas_[s % week] += d * d;
  }
  for (std::size_t s = 0; s < week; ++s)
    sigmas_[s] = std::sqrt(sigmas_[s] / static_cast<double>(counts[s]));

  // With only a few weeks of history the per-slot sigma is a 2-4-sample
  // estimate and randomly undershoots, and the slot mean itself carries
  // sigma/sqrt(weeks) of estimation error; pool with an *upper* quantile
  // of the city-typical relative dispersion so no slot gets an
  // implausibly tight band (the 75th percentile compensates both
  // small-sample effects).
  std::vector<double> relative;
  relative.reserve(week);
  for (std::size_t s = 0; s < week; ++s)
    if (means_[s] > 0.0) relative.push_back(sigmas_[s] / means_[s]);
  const double pooled_relative =
      relative.empty() ? 0.0 : quantile(relative, 0.75);
  const double floor_relative =
      std::max(kMinRelativeSigma, pooled_relative);
  for (std::size_t s = 0; s < week; ++s) {
    sigmas_[s] = std::max(sigmas_[s], floor_relative * std::fabs(means_[s]));
    if (sigmas_[s] <= 0.0) sigmas_[s] = 1e-9;  // all-zero slot history
  }
  phase_ = history.size() % week;
}

std::vector<double> TrafficAnomalyDetector::score(
    std::span<const double> series) const {
  const auto week = static_cast<std::size_t>(TimeGrid::kSlotsPerWeek);
  std::vector<double> out;
  out.reserve(series.size());
  for (std::size_t s = 0; s < series.size(); ++s) {
    const std::size_t slot = (phase_ + s) % week;
    out.push_back((series[s] - means_[slot]) / sigmas_[slot]);
  }
  return out;
}

std::vector<Anomaly> TrafficAnomalyDetector::detect(
    std::span<const double> series) const {
  const auto scores = score(series);
  std::vector<Anomaly> anomalies;
  bool open = false;
  Anomaly current;
  std::size_t quiet = 0;

  auto close = [&](std::size_t end) {
    current.end_slot = end;
    if (current.end_slot - current.begin_slot >= kMinDuration)
      anomalies.push_back(current);
    open = false;
  };

  for (std::size_t s = 0; s < scores.size(); ++s) {
    const double z = scores[s];
    if (std::fabs(z) >= kThreshold) {
      if (!open) {
        open = true;
        current = Anomaly{};
        current.begin_slot = s;
        current.peak_score = z;
        current.is_surge = z > 0.0;
      }
      if (std::fabs(z) > std::fabs(current.peak_score)) {
        current.peak_score = z;
        current.is_surge = z > 0.0;
      }
      quiet = 0;
    } else if (open) {
      ++quiet;
      if (quiet > kGapTolerance) close(s - quiet + 1);
    }
  }
  if (open) close(scores.size() - quiet);
  return anomalies;
}

}  // namespace cellscope
