// Traffic anomaly detection.
//
// A direct application of the pattern model: once a tower's expected
// weekly shape is known, deviations flag events — a flash crowd at an
// entertainment tower, an outage, a misbehaving logger. The detector
// estimates a per-slot-of-week mean and dispersion from history and
// scores each new observation as a robust z-score; runs of high scores
// are merged into anomaly intervals.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cellscope {

/// One detected anomaly interval.
struct Anomaly {
  std::size_t begin_slot = 0;  ///< index into the scored series
  std::size_t end_slot = 0;    ///< exclusive
  double peak_score = 0.0;     ///< largest |z| in the interval
  bool is_surge = true;        ///< traffic above (true) or below model
};

/// A per-slot-of-week traffic model fitted from history.
class TrafficAnomalyDetector {
 public:
  /// Fits slot-of-week means and standard deviations. The history must
  /// cover at least two full weeks (one dispersion sample per slot).
  explicit TrafficAnomalyDetector(std::span<const double> history);

  /// Z-score of each observation in a series that *continues* the history
  /// (slot phase continues where history ended).
  std::vector<double> score(std::span<const double> series) const;

  /// Merged anomaly intervals in the series: runs of |z| >= 4 that may
  /// dip below it for up to 2 slots and last at least 2 slots.
  std::vector<Anomaly> detect(std::span<const double> series) const;

 private:
  std::vector<double> means_;
  std::vector<double> sigmas_;
  std::size_t phase_ = 0;  ///< slot-of-week where scoring starts
};

}  // namespace cellscope
