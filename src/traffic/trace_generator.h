// Session-level trace generation.
//
// The paper's raw input is a log of individual data connections; this
// generator emits that representation from the per-tower intensity model,
// including the data-quality defects the paper's preprocessing removes
// (§2.2): exact duplicate records and conflicting records (same connection
// logged twice with different byte counts).
#pragma once

#include <cstdint>
#include <vector>

#include "city/tower.h"
#include "traffic/intensity_model.h"
#include "traffic/trace_record.h"

namespace cellscope {

/// Trace generation knobs.
struct TraceOptions {
  std::uint64_t seed = 777;
  /// Subscriber population size (ids are drawn from a heavy-tailed usage
  /// distribution, mirroring the 150k-subscriber trace at reduced scale).
  std::size_t n_users = 5000;
  /// Mean bytes per session; controls how many sessions a slot's expected
  /// bytes decompose into.
  double mean_session_bytes = 2.0e5;
  /// Probability of emitting an exact duplicate of a record.
  double duplicate_prob = 0.02;
  /// Probability of emitting a conflicting copy (same user/tower/start,
  /// different bytes and end time).
  double conflict_prob = 0.01;
  /// Generate only days [day_begin, day_end) of the 28-day grid — session
  /// mode is detailed, so tests and benches often restrict the window.
  int day_begin = 0;
  int day_end = TimeGrid::kDays;
};

/// A generated trace: the log and the number of defects injected into it.
struct TraceResult {
  std::vector<TrafficLog> logs;
  std::size_t duplicates_injected = 0;
  std::size_t conflicts_injected = 0;
};

/// Generates the session-level trace for all towers over the selected day
/// window. Deterministic in the seed. Records come out in emission order:
/// towers in `towers` order, slots ascending within a tower, and each
/// connection directly followed by its duplicate, then its conflicting
/// copy, when it has them. Arrival order is not modelled here:
/// perturb_arrival_order (stream/replay.h) is the one arrival model.
TraceResult generate_trace(const std::vector<Tower>& towers,
                           const IntensityModel& intensity,
                           const TraceOptions& options);

/// A shapeless load-test feed of `n_records` records over the 4-week
/// grid: users uniform in [0, 99999], towers uniform in [0, n_towers),
/// starts time-ordered (record i at i/n_records of the grid) plus 0–30
/// minutes of jitter, durations 0–15 minutes, bytes uniform in
/// [100, 200000]. No diurnal shape, duplicates or addresses. Only the
/// perf_stream and perf_introspect benches use it, to keep their
/// recorded baselines comparable; every live path replays generate_trace.
/// Deterministic in the seed; requires n_towers >= 1.
std::vector<TrafficLog> uniform_feed(std::size_t n_records,
                                     std::uint32_t n_towers,
                                     std::uint64_t seed);

}  // namespace cellscope
