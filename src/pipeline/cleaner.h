// Log cleaning — the paper's preprocessing step 1 (§2.2).
//
// Removes the redundant and conflicting records the collection process
// introduces: exact duplicates are dropped; conflicting records (same
// user/tower/start logged with different byte counts) are resolved by
// keeping the record with the largest byte count (the complete log of the
// connection); structurally malformed records are discarded.
#pragma once

#include <cstddef>
#include <vector>

#include "traffic/trace_record.h"

namespace cellscope {

/// Accounting of what cleaning removed.
struct CleanStats {
  std::size_t input_records = 0;
  std::size_t malformed_dropped = 0;
  std::size_t duplicates_removed = 0;
  std::size_t conflicts_resolved = 0;
  std::size_t output_records = 0;
};

/// Cleans a log batch. Output is sorted by (user, tower, start) — a
/// deterministic order downstream stages may rely on.
std::vector<TrafficLog> clean_logs(std::vector<TrafficLog> logs,
                                   CleanStats* stats = nullptr);

}  // namespace cellscope
