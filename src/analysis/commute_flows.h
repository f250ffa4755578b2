// Commute-flow analysis — reading human migration out of connection logs.
//
// §5.2 of the paper interprets the daily-phase ordering of the patterns as
// "the human migration flow from home to office via transport during rush
// hours". With per-user logs, the flow is directly measurable: order each
// user's sessions in time, and count transitions between towers of
// different functional regions inside an hour window. Morning windows
// should be dominated by resident→transport and transport→office
// transitions; evening windows by the reverse.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "city/functional_region.h"
#include "traffic/trace_record.h"

namespace cellscope {

/// Region-to-region transition counts.
struct FlowMatrix {
  std::array<std::array<std::size_t, kNumRegions>, kNumRegions> counts{};

  /// Total transitions between *different* regions.
  std::size_t total_cross() const;

  /// counts[from][to] as a fraction of total_cross(); 0 when empty.
  double share(FunctionalRegion from, FunctionalRegion to) const;
};

/// Options for the flow extraction.
struct FlowOptions {
  /// Window of hours-of-day [begin, end) to attribute transitions to (the
  /// transition timestamp is the destination session's start).
  double hour_begin = 0.0;
  double hour_end = 24.0;
};

/// Extracts weekday region-to-region transitions from logs: a user's
/// consecutive sessions on two towers at most 120 minutes apart, counted
/// when the later one starts on a weekday (the commute; the grid starts
/// on a Monday) inside the hour window. `region_of_tower[id]` maps tower
/// ids to functional regions (typically the clustering labels, or ground
/// truth). Logs need not be sorted.
FlowMatrix commute_flows(std::span<const TrafficLog> logs,
                         const std::vector<FunctionalRegion>& region_of_tower,
                         const FlowOptions& options);

}  // namespace cellscope
