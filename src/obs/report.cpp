#include "obs/report.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/error.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/timer.h"

// Baked in by src/obs/CMakeLists.txt at configure time; "unknown" when
// the tree is not a git checkout.
#ifndef CELLSCOPE_GIT_SHA
#define CELLSCOPE_GIT_SHA "unknown"
#endif
#ifndef CELLSCOPE_BUILD_TYPE
#define CELLSCOPE_BUILD_TYPE "unknown"
#endif

namespace cellscope::obs {

namespace {

std::string format_json_double(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no nan/inf literal
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// The armed exit report: name fixed by the first caller, config merged
/// across callers (an Experiment inside a bench contributes its rows to
/// the bench's report).
struct ArmedReport {
  std::mutex mutex;
  std::string name;
  std::vector<std::pair<std::string, std::string>> config;  // json tokens
  bool atexit_registered = false;
};

ArmedReport& armed_report() {
  static ArmedReport* armed = new ArmedReport;  // never destroyed
  return *armed;
}

void write_armed_report_at_exit() {
  const std::string& path = run_report_path();
  if (path.empty()) return;
  auto& armed = armed_report();
  std::string name;
  std::vector<std::pair<std::string, std::string>> config;
  {
    std::lock_guard<std::mutex> lock(armed.mutex);
    name = armed.name;
    config = armed.config;
  }
  RunReport report(std::move(name));
  for (auto& [key, token] : config)
    report.add_config_json(key, std::move(token));
  try {
    report.write(path);
    log_info("run_report.written", {{"path", path}});
  } catch (const Error& e) {
    // Exit-time report writes must never turn a green run red.
    log_warn("run_report.write_failed", {{"path", path}, {"error", e.what()}});
  }
}

}  // namespace

BuildInfo build_info() {
  BuildInfo info;
  info.git_sha = CELLSCOPE_GIT_SHA;
  info.build_type = CELLSCOPE_BUILD_TYPE;
#ifdef __VERSION__
  info.compiler = __VERSION__;
#else
  info.compiler = "unknown";
#endif
  return info;
}

const std::string& run_report_path() {
  static const std::string path = [] {
    const char* env = std::getenv("CELLSCOPE_RUN_REPORT");
    return std::string(env && *env ? env : "");
  }();
  return path;
}

RunReport::RunReport(std::string name) : name_(std::move(name)) {}

void RunReport::add_config_json(std::string_view key,
                                std::string json_token) {
  for (auto& [k, v] : config_) {
    if (k == key) {
      v = std::move(json_token);
      return;
    }
  }
  config_.emplace_back(std::string(key), std::move(json_token));
}

void RunReport::add_config(std::string_view key, std::string_view value) {
  add_config_json(key, '"' + json_escape(value) + '"');
}

void RunReport::add_config(std::string_view key, double value) {
  add_config_json(key, format_json_double(value));
}

void RunReport::add_config(std::string_view key, bool value) {
  add_config_json(key, value ? "true" : "false");
}

void RunReport::add_config(std::string_view key, std::uint64_t value) {
  add_config_json(key, std::to_string(value));
}

void RunReport::add_config(std::string_view key, std::int64_t value) {
  add_config_json(key, std::to_string(value));
}

std::string RunReport::to_json() const {
  const BuildInfo build = build_info();
  auto& board = QualityBoard::instance();

  std::string json = "{\"report\":\"" + json_escape(name_) + "\"";
  json += ",\"schema\":1";
  json += ",\"created_unix_s\":" +
          std::to_string(std::chrono::duration_cast<std::chrono::seconds>(
                             std::chrono::system_clock::now()
                                 .time_since_epoch())
                             .count());
  json += ",\"build\":{\"git_sha\":\"" + json_escape(build.git_sha) +
          "\",\"build_type\":\"" + json_escape(build.build_type) +
          "\",\"compiler\":\"" + json_escape(build.compiler) + "\"}";
  json += ",\"config\":{";
  bool first = true;
  for (const auto& [key, token] : config_) {
    if (!first) json += ',';
    first = false;
    json += '"' + json_escape(key) + "\":" + token;
  }
  json += "}";
  json += ",\"wall_s\":" + format_json_double(now_us() / 1e6);
  json += ",\"stages\":[";
  first = true;
  for (const auto& e : StageTrace::instance().events()) {
    if (!first) json += ',';
    first = false;
    json += "{\"name\":\"" + json_escape(e.name) + "\",\"cat\":\"" +
            json_escape(e.category) +
            "\",\"ts_us\":" + format_json_double(e.ts_us) +
            ",\"dur_us\":" + format_json_double(e.dur_us) + '}';
  }
  json += "],\"metrics\":" + MetricsRegistry::instance().snapshot_json();
  json += ",\"quality\":{\"passed\":" + std::to_string(board.passed()) +
          ",\"warned\":" + std::to_string(board.warned()) +
          ",\"failed\":" + std::to_string(board.failed()) +
          ",\"ok\":" + (board.ok() ? "true" : "false") +
          ",\"verdicts\":" + board.verdicts_json() + "}";
  json += "}";
  return json;
}

void RunReport::write(const std::string& path) const {
  const std::string json = to_json();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) throw IoError("cannot write run report: " + path);
  std::fwrite(json.data(), 1, json.size(), file);
  std::fputc('\n', file);
  std::fclose(file);
}

bool arm_run_report(const std::string& name) {
  return arm_run_report(name, {});
}

bool arm_run_report(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& config_json) {
  if (run_report_path().empty()) return false;
  // The report wants per-stage spans even without CELLSCOPE_TRACE.
  StageTrace::instance().set_enabled(true);
  auto& armed = armed_report();
  std::lock_guard<std::mutex> lock(armed.mutex);
  if (armed.name.empty()) armed.name = name;
  for (const auto& [key, token] : config_json) {
    bool replaced = false;
    for (auto& [k, v] : armed.config) {
      if (k == key) {
        v = token;
        replaced = true;
        break;
      }
    }
    if (!replaced) armed.config.emplace_back(key, token);
  }
  if (!armed.atexit_registered) {
    armed.atexit_registered = true;
    std::atexit(write_armed_report_at_exit);
  }
  return true;
}

}  // namespace cellscope::obs
