// Mobility-aware trace generation.
//
// Unlike generate_trace (which decomposes per-tower intensity into
// sessions), this generator works user-first: every subscriber emits
// sessions from wherever the mobility model places them, so the resulting
// logs carry real per-user trajectories — home in the evening, a transport
// tower during rush hour, the office at midday. Input to the commute-flow
// analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/mobility.h"
#include "traffic/trace_record.h"

namespace cellscope {

/// Mobility-trace knobs.
struct MobilityTraceOptions {
  std::uint64_t seed = 99;
  /// Generate days [day_begin, day_end) of the grid.
  int day_begin = 0;
  int day_end = 7;
};

/// Emits session logs for every user over the day window, following the
/// mobility model's schedules. Logs are time-ordered per user (globally
/// sorted by start time).
std::vector<TrafficLog> generate_mobility_trace(
    const std::vector<Tower>& towers, const MobilityModel& mobility,
    const MobilityTraceOptions& options);

/// The diurnal session-activity multiplier in [0, 1] (people use their
/// phones little at 4 AM, most around midday and evening).
double activity_level(double hour_of_day);

}  // namespace cellscope
