#include "analysis/time_features.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/stats.h"

namespace cellscope {

namespace {

/// Smoothing half-window (slots) applied to the mean day before peak
/// detection; 10-minute noise would otherwise fragment peaks.
constexpr std::size_t kSmoothHalfWindow = 3;
/// A local maximum counts as a peak if >= this fraction of the global one.
constexpr double kSecondaryFraction = 0.55;
/// Minimum separation between reported peaks, hours.
constexpr double kMinPeakSeparationH = 3.0;

/// Mean day (144 slots) over the slots of one day type.
std::vector<double> mean_day_profile(std::span<const double> series,
                                     bool weekday) {
  std::vector<double> day(TimeGrid::kSlotsPerDay, 0.0);
  std::vector<std::size_t> counts(TimeGrid::kSlotsPerDay, 0);
  for (std::size_t s = 0; s < series.size(); ++s) {
    if (TimeGrid::is_weekday(s) != weekday) continue;
    const int sod = TimeGrid::slot_of_day(s);
    day[sod] += series[s];
    ++counts[sod];
  }
  for (int sod = 0; sod < TimeGrid::kSlotsPerDay; ++sod) {
    CS_CHECK_MSG(counts[sod] > 0, "day type has no samples");
    day[sod] /= static_cast<double>(counts[sod]);
  }
  return day;
}

/// Local maxima of a circular day profile, filtered and sorted by height.
std::vector<double> find_peaks(const std::vector<double>& day) {
  const std::size_t n = day.size();
  std::vector<std::pair<double, double>> candidates;  // (height, hour)
  for (std::size_t i = 0; i < n; ++i) {
    const double prev = day[(i + n - 1) % n];
    const double next = day[(i + 1) % n];
    if (day[i] >= prev && day[i] > next)
      candidates.emplace_back(day[i],
                              static_cast<double>(i) * TimeGrid::kSlotMinutes /
                                  60.0);
  }
  if (candidates.empty()) return {};
  std::sort(candidates.rbegin(), candidates.rend());
  const double top = candidates.front().first;

  std::vector<double> peaks;
  for (const auto& [height, hour] : candidates) {
    if (height < kSecondaryFraction * top) break;
    bool distinct = true;
    for (const double kept : peaks) {
      const double d = std::fabs(kept - hour);
      if (std::min(d, 24.0 - d) < kMinPeakSeparationH) {
        distinct = false;
        break;
      }
    }
    if (distinct) peaks.push_back(hour);
  }
  return peaks;
}

DayTypeFeatures day_type_features(std::span<const double> series,
                                  bool weekday) {
  DayTypeFeatures f;
  f.mean_day = mean_day_profile(series, weekday);

  for (std::size_t s = 0; s < series.size(); ++s)
    if (TimeGrid::is_weekday(s) == weekday) f.total_bytes += series[s];

  const auto smooth =
      circular_moving_average(f.mean_day, kSmoothHalfWindow);
  const std::size_t peak_slot = argmax(smooth);
  const std::size_t valley_slot = argmin(smooth);
  f.max_traffic = f.mean_day[peak_slot];
  f.min_traffic = f.mean_day[valley_slot];
  f.peak_hour =
      static_cast<double>(peak_slot) * TimeGrid::kSlotMinutes / 60.0;
  f.valley_hour =
      static_cast<double>(valley_slot) * TimeGrid::kSlotMinutes / 60.0;
  f.peak_valley_ratio =
      f.min_traffic > 0.0 ? f.max_traffic / f.min_traffic
                          : std::numeric_limits<double>::infinity();
  f.peak_hours = find_peaks(smooth);
  return f;
}

}  // namespace

TimeFeatures compute_time_features(std::span<const double> series) {
  CS_CHECK_MSG(series.size() == TimeGrid::kSlots,
               "time features need a 4032-slot series");
  TimeFeatures f;
  f.weekday = day_type_features(series, true);
  f.weekend = day_type_features(series, false);
  // Per-day means: 20 weekdays vs 8 weekend days in the 4-week grid.
  const double weekday_days = 20.0;
  const double weekend_days = 8.0;
  const double wd = f.weekday.total_bytes / weekday_days;
  const double we = f.weekend.total_bytes / weekend_days;
  f.weekday_weekend_ratio =
      we > 0.0 ? wd / we : std::numeric_limits<double>::infinity();
  return f;
}

std::string format_peak_time(double hour) {
  return TimeGrid::format_hour(hour);
}

}  // namespace cellscope
