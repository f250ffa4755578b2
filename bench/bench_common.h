// Shared plumbing for the figure/table reproduction harnesses.
//
// Every bench works from the same deterministic Experiment so numbers are
// comparable across binaries. Scale and seed can be overridden with the
// CELLSCOPE_TOWERS / CELLSCOPE_SEED environment variables; figure CSVs
// land in the directory reported by figure_output_dir(). Perf benches
// additionally write a machine-readable BENCH_<name>.json (wall time,
// pipeline stage spans, metrics snapshot) via CELLSCOPE_BENCH_JSON so the
// perf trajectory is trackable across commits.
#pragma once

#include <string>

#include "core/cellscope.h"

namespace cellscope::bench {

/// Tower count for benches (CELLSCOPE_TOWERS in [20, 2^32 - 1], default
/// 800). A junk or out-of-range value exits 2.
std::size_t bench_towers();

/// Seed for benches (CELLSCOPE_SEED, default 2015). A junk or overflowing
/// value exits 2.
std::uint64_t bench_seed();

/// The shared experiment (built once per process).
const Experiment& experiment();

/// Prints the standard bench banner naming the paper artifact.
void banner(const std::string& artifact, const std::string& description);

/// "X.XXe+08"-style compact scientific formatting for byte counts.
std::string sci(double v);

/// Writes BENCH_<name>.json — the run-report schema of obs/report.h:
/// build identity, config, stage spans, metrics snapshot (with
/// percentiles), and quality verdicts — into the current directory
/// (or $CELLSCOPE_BENCH_DIR). Returns the path written. bench_compare
/// diffs these against bench/baselines/ (scripts/check_perf.sh).
std::string report_json(const std::string& name);

/// Enables stage-span recording and registers an atexit hook that calls
/// report_json(name) when the process exits. This is how google-benchmark
/// binaries (whose main() we don't own) emit their report.
void enable_json_report(const std::string& name);

/// Put one of these at namespace scope in a perf_* bench.
#define CELLSCOPE_BENCH_JSON(name)                                  \
  [[maybe_unused]] static const bool cellscope_bench_json_enabled = \
      (::cellscope::bench::enable_json_report(name), true)

}  // namespace cellscope::bench
