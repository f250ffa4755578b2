#include "analysis/commute_flows.h"

#include <algorithm>

#include "common/error.h"
#include "common/time_grid.h"

namespace cellscope {

namespace {

/// Only a consecutive session pair at most this many minutes apart is a
/// transition (a phone silent for half a day is not a commute edge).
constexpr std::uint32_t kMaxGapMinutes = 120;

}  // namespace

std::size_t FlowMatrix::total_cross() const {
  std::size_t total = 0;
  for (int a = 0; a < kNumRegions; ++a)
    for (int b = 0; b < kNumRegions; ++b)
      if (a != b) total += counts[a][b];
  return total;
}

double FlowMatrix::share(FunctionalRegion from, FunctionalRegion to) const {
  const auto total = total_cross();
  if (total == 0) return 0.0;
  return static_cast<double>(
             counts[static_cast<int>(from)][static_cast<int>(to)]) /
         static_cast<double>(total);
}

FlowMatrix commute_flows(std::span<const TrafficLog> logs,
                         const std::vector<FunctionalRegion>& region_of_tower,
                         const FlowOptions& options) {
  CS_CHECK_MSG(options.hour_begin >= 0.0 && options.hour_end <= 24.0 &&
                   options.hour_begin < options.hour_end,
               "hour window must satisfy 0 <= begin < end <= 24");

  // Group by user, ordered by time.
  std::vector<const TrafficLog*> ordered;
  ordered.reserve(logs.size());
  for (const auto& log : logs) ordered.push_back(&log);
  std::sort(ordered.begin(), ordered.end(),
            [](const TrafficLog* a, const TrafficLog* b) {
              if (a->user_id != b->user_id) return a->user_id < b->user_id;
              return a->start_minute < b->start_minute;
            });

  FlowMatrix flows;
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    const auto& prev = *ordered[i - 1];
    const auto& cur = *ordered[i];
    if (prev.user_id != cur.user_id) continue;
    if (cur.tower_id == prev.tower_id) continue;
    if (cur.start_minute - prev.start_minute > kMaxGapMinutes) continue;

    // Attribute to the destination session's time-of-day.
    const std::uint32_t minute_of_day = cur.start_minute % (24 * 60);
    const double hour = static_cast<double>(minute_of_day) / 60.0;
    if (hour < options.hour_begin || hour >= options.hour_end) continue;
    const std::uint32_t day = cur.start_minute / (24 * 60);
    if (day % 7 >= 5) continue;  // the grid starts on a Monday

    CS_CHECK_MSG(prev.tower_id < region_of_tower.size() &&
                     cur.tower_id < region_of_tower.size(),
                 "tower id outside region map");
    ++flows.counts[static_cast<int>(region_of_tower[prev.tower_id])]
                  [static_cast<int>(region_of_tower[cur.tower_id])];
  }
  return flows;
}

}  // namespace cellscope
