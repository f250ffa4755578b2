#include "pipeline/cleaner.h"

#include <algorithm>
#include <tuple>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace cellscope {

std::vector<TrafficLog> clean_logs(std::vector<TrafficLog> logs,
                                   CleanStats* stats) {
  obs::StageSpan span("pipeline.clean", "pipeline", obs::LogLevel::kDebug);
  CleanStats local;
  local.input_records = logs.size();

  // Drop malformed records.
  auto is_malformed = [](const TrafficLog& log) {
    if (log.end_minute <= log.start_minute) return true;
    if (log.bytes == 0) return true;
    return false;
  };
  const auto before = logs.size();
  std::erase_if(logs, is_malformed);
  local.malformed_dropped = before - logs.size();

  // Sort so duplicates/conflicts of one connection are adjacent; within a
  // connection key, the largest byte count comes first and is kept.
  std::sort(logs.begin(), logs.end(),
            [](const TrafficLog& a, const TrafficLog& b) {
              return std::tie(a.user_id, a.tower_id, a.start_minute, b.bytes,
                              b.end_minute) <
                     std::tie(b.user_id, b.tower_id, b.start_minute, a.bytes,
                              a.end_minute);
            });

  std::vector<TrafficLog> out;
  out.reserve(logs.size());
  for (auto& log : logs) {
    if (!out.empty()) {
      const auto& kept = out.back();
      const bool same_connection = kept.user_id == log.user_id &&
                                   kept.tower_id == log.tower_id &&
                                   kept.start_minute == log.start_minute;
      if (same_connection) {
        if (kept.bytes == log.bytes && kept.end_minute == log.end_minute &&
            kept.address == log.address) {
          ++local.duplicates_removed;
        } else {
          ++local.conflicts_resolved;
        }
        continue;  // keep the first (largest) record of the connection
      }
    }
    out.push_back(std::move(log));
  }

  local.output_records = out.size();

  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("cellscope.pipeline.cleaner_input")
      .add(local.input_records);
  registry.counter("cellscope.pipeline.cleaner_malformed")
      .add(local.malformed_dropped);
  registry.counter("cellscope.pipeline.cleaner_duplicates")
      .add(local.duplicates_removed);
  registry.counter("cellscope.pipeline.cleaner_conflicts")
      .add(local.conflicts_resolved);
  registry.counter("cellscope.pipeline.cleaner_output")
      .add(local.output_records);
  span.annotate({"input", local.input_records});
  span.annotate({"malformed", local.malformed_dropped});
  span.annotate({"duplicates", local.duplicates_removed});
  span.annotate({"conflicts", local.conflicts_resolved});
  span.annotate({"output", local.output_records});

  if (stats) *stats = local;
  return out;
}

}  // namespace cellscope
