// Per-run provenance reports — one JSON artifact per run.
//
// A RunReport aggregates everything the obs layer knows about a run into
// a single machine-readable document: build/git identity, the run's
// configuration, recorded stage spans, the full metrics snapshot (with
// p50/p90/p99 histogram percentiles), and the quality-sentinel tallies
// with the newest stored verdicts.
// Setting CELLSCOPE_RUN_REPORT=<path> makes Experiment::run and every
// perf_*/ext_* bench write one at process exit; BENCH_*.json perf reports
// share the same schema (see DESIGN.md §7 for the field list).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cellscope::obs {

/// Compile-time build identity baked in by CMake.
struct BuildInfo {
  std::string git_sha;     ///< configure-time `git rev-parse --short HEAD`
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string compiler;    ///< the compiler's __VERSION__ banner
};
BuildInfo build_info();

/// Path from CELLSCOPE_RUN_REPORT (read once per process; "" = disabled).
const std::string& run_report_path();

/// Builder for one report document. Collection (spans, metrics, quality)
/// happens when to_json() is called, so build the report last.
class RunReport {
 public:
  explicit RunReport(std::string name);

  /// Adds one key to the "config" object (last write per key wins).
  void add_config(std::string_view key, std::string_view value);
  void add_config(std::string_view key, const char* value) {
    add_config(key, std::string_view(value));
  }
  void add_config(std::string_view key, double value);
  void add_config(std::string_view key, bool value);
  void add_config(std::string_view key, std::uint64_t value);
  void add_config(std::string_view key, std::int64_t value);
  /// Adds a pre-rendered JSON token as the value (no quoting applied).
  void add_config_json(std::string_view key, std::string json_token);

  /// The full report document (one JSON object).
  std::string to_json() const;

  /// Writes to_json() + newline to `path`; throws IoError on failure.
  void write(const std::string& path) const;

 private:
  std::string name_;
  // Keys in insertion order; values are pre-rendered JSON tokens.
  std::vector<std::pair<std::string, std::string>> config_;
};

/// Arms the process-exit run report: remembers `name` (first caller
/// wins), merges `config` rows, enables stage-span recording, and — once —
/// registers an atexit hook that writes the report to run_report_path().
/// No-op (returns false) when CELLSCOPE_RUN_REPORT is unset.
bool arm_run_report(const std::string& name);
bool arm_run_report(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& config_json);

}  // namespace cellscope::obs
