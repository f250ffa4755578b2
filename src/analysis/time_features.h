// Time-domain characteristics of a traffic series — §4.1 of the paper.
//
// Quantifies, separately for weekdays and weekends:
//   * total traffic (and the weekday/weekend ratio of Fig. 10a),
//   * maximum / minimum traffic of the mean day and the peak-valley ratio
//     (Table 4, Fig. 10b),
//   * time of the mean day's peak and valley, plus detection of secondary
//     peaks (Table 5: transport shows 8:00 and 18:00).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/time_grid.h"

namespace cellscope {

/// Day-type statistics over the averaged day profile.
struct DayTypeFeatures {
  double total_bytes = 0.0;      ///< sum over all slots of this day type
  double max_traffic = 0.0;      ///< peak of the mean day (bytes/slot)
  double min_traffic = 0.0;      ///< valley of the mean day
  double peak_valley_ratio = 0.0;
  double peak_hour = 0.0;        ///< hour-of-day of the main peak
  double valley_hour = 0.0;      ///< hour-of-day of the valley
  /// Hours of all local peaks at least 0.55 of the main one, at least
  /// 3 h apart, in descending height order (detects double humps).
  std::vector<double> peak_hours;
  /// Mean day profile (144 slots).
  std::vector<double> mean_day;
};

/// Full time-domain feature set of one traffic series.
struct TimeFeatures {
  DayTypeFeatures weekday;
  DayTypeFeatures weekend;
  /// Mean daily traffic ratio weekday/weekend (Fig. 10a — per-day totals,
  /// so a flat series gives 1.0).
  double weekday_weekend_ratio = 0.0;
};

/// Computes the features of a 4032-slot series.
TimeFeatures compute_time_features(std::span<const double> series);

/// Pretty "HH:MM" for a peak/valley hour.
std::string format_peak_time(double hour);

}  // namespace cellscope
