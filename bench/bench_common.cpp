#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/report.h"
#include "obs/timer.h"

namespace cellscope::bench {

namespace {

/// env_u64 with a bad value exiting 2 with its message, like a bad CLI
/// flag.
std::uint64_t checked_env(const char* name, std::uint64_t fallback,
                          std::uint64_t min, std::uint64_t max) {
  try {
    return env_u64(name, fallback, min, max);
  } catch (const InvalidArgument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace

std::size_t bench_towers() {
  return checked_env("CELLSCOPE_TOWERS", 800, 20,
                     std::numeric_limits<std::uint32_t>::max());
}

std::uint64_t bench_seed() {
  return checked_env("CELLSCOPE_SEED", 2015, 0,
                     std::numeric_limits<std::uint64_t>::max());
}

const Experiment& experiment() {
  static const Experiment instance = [] {
    ExperimentConfig config;
    config.n_towers = bench_towers();
    config.seed = bench_seed();
    return Experiment::run(config);
  }();
  return instance;
}

void banner(const std::string& artifact, const std::string& description) {
  std::cout << "================================================================\n"
            << "CellScope reproduction — " << artifact << "\n"
            << description << "\n"
            << "synthetic city: " << bench_towers() << " towers, seed "
            << bench_seed() << "\n"
            << "================================================================\n\n";
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

namespace {

std::string bench_report_path(const std::string& name) {
  std::string dir = ".";
  if (const char* env = std::getenv("CELLSCOPE_BENCH_DIR"); env && *env)
    dir = env;
  return dir + "/BENCH_" + name + ".json";
}

/// The bench whose report is written at exit (empty = none registered).
std::string& registered_report_name() {
  static std::string name;
  return name;
}

void write_report_at_exit() {
  const std::string& name = registered_report_name();
  if (name.empty()) return;
  try {
    report_json(name);
  } catch (const Error&) {
    // A failed report write must not turn a green bench red.
  }
}

}  // namespace

std::string report_json(const std::string& name) {
  // BENCH_*.json shares the run-report schema (obs/report.h): build
  // identity, config, stage spans, metrics with percentiles, quality
  // verdicts. bench_compare gates on its top-level "wall_s".
  const std::string path = bench_report_path(name);
  obs::RunReport report(name);
  report.add_config("towers", bench_towers());
  report.add_config("seed", bench_seed());
  report.write(path);
  return path;
}

void enable_json_report(const std::string& name) {
  // Reject a bad CELLSCOPE_TOWERS / CELLSCOPE_SEED now, before the first
  // benchmark runs, rather than first reading it in the exit-time report.
  bench_towers();
  bench_seed();
  // Record pipeline spans even without CELLSCOPE_TRACE so the report can
  // break the run down per stage.
  obs::StageTrace::instance().set_enabled(true);
  // With CELLSCOPE_RUN_REPORT set, also emit a run report named after
  // this bench at exit (the bench name wins over "experiment").
  obs::arm_run_report(name);
  const bool already_registered = !registered_report_name().empty();
  registered_report_name() = name;
  if (!already_registered) std::atexit(write_report_at_exit);
}

}  // namespace cellscope::bench
