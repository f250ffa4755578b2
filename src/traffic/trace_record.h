// The raw trace record.
//
// Mirrors the fields the paper's ISP trace carries per entry (§2.1):
// anonymized device id, start/end time of the data connection, base-station
// id, base-station address, and bytes used in the connection.
#pragma once

#include <cstdint>
#include <string>

namespace cellscope {

/// One data-connection log entry. Times are minutes since the start of the
/// 4-week measurement grid.
///
/// Interval semantics: [start_minute, end_minute) — the start minute is
/// inside the connection, the end minute is not, and end_minute >=
/// start_minute always holds for well-formed records (the trace readers
/// reject violations). A zero-length connection (end == start) is valid and
/// carries its bytes like any other; binning attributes all bytes to the
/// 10-minute slot containing start_minute, so a connection crossing
/// midnight (or any slot boundary) still lands in exactly one slot.
struct TrafficLog {
  std::uint64_t user_id = 0;
  std::uint32_t tower_id = 0;
  std::uint32_t start_minute = 0;
  std::uint32_t end_minute = 0;  ///< exclusive end; >= start_minute
  std::uint64_t bytes = 0;
  std::string address;  ///< base-station street address (as logged)

  /// Connection length in minutes under the half-open convention:
  /// end_minute - start_minute (0 for a zero-length connection).
  std::uint32_t duration_minutes() const {
    return end_minute >= start_minute ? end_minute - start_minute : 0;
  }

  bool operator==(const TrafficLog& other) const = default;
};

}  // namespace cellscope
