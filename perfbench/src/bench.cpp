#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "simd/simd.h"

namespace perfbench {

namespace {

/// Checked decimal parse of `text` into [lo, hi] for flag `flag`.
std::uint64_t parse_uint(std::string_view flag, std::string_view text,
                         std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec == std::errc::invalid_argument || ptr != end)
    throw UsageError(std::string(flag) + ": not a decimal integer: '" +
                     std::string(text) + "'");
  if (ec == std::errc::result_out_of_range || value < lo || value > hi)
    throw UsageError(std::string(flag) + ": " + std::string(text) +
                     " is outside [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
  return value;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError(flag + ": missing value");
    const std::string_view value = argv[i + 1];
    if (!seen.insert(flag).second) throw UsageError(flag + ": given twice");
    if (flag == "--workload") {
      if (value != "train_city" && value != "replay_city" &&
          value != "serve_live")
        throw UsageError("--workload: unknown workload '" +
                         std::string(value) + "'");
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value, 0, UINT64_MAX);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<std::uint32_t>(parse_uint(flag, value, 1, 600));
    } else if (flag == "--trace") {
      args.trace = parse_uint(flag, value, 0, 1) == 1;
    } else if (flag == "--rate") {
      args.rate = static_cast<std::uint32_t>(parse_uint(flag, value, 1, 100000));
    } else if (flag == "--out") {
      if (value.empty()) throw UsageError("--out: empty directory");
      args.out_dir = value;
    } else {
      throw UsageError("unknown flag '" + flag + "'");
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"})
    if (seen.count(required) == 0)
      throw UsageError(std::string(required) + " is required");
  return args;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  namespace simd = cellscope::simd;
  std::string json = "{\"cpu_model\":\"" + cellscope::obs::json_escape(cpu);
  json += "\",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  json += ",\"simd_detected\":\"" +
          std::string(simd::isa_name(simd::detected_isa()));
  json += "\",\"simd_active\":\"" +
          std::string(simd::isa_name(simd::active_isa()));
  json += "\",\"analytics_pool\":" + std::to_string(cellscope::configured_thread_count());
  json += ",\"server_workers\":" + std::to_string(kServerWorkers);
  json += ",\"client_connections\":" + std::to_string(kClientConnections);
  json += ",\"stream_shards\":" + std::to_string(kStreamShards) + "}";
  return json;
}

std::size_t SpanRecorder::open(std::string_view name) {
  Span span;
  span.name = name;
  span.start_us = std::chrono::duration<double, std::micro>(
                      Clock::now() - epoch_).count();
  span.parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t id) {
  spans_[id].end_us = std::chrono::duration<double, std::micro>(
                          Clock::now() - epoch_).count();
  // Spans close in LIFO order (ScopedSpan); pop through `id` regardless.
  while (!stack_.empty()) {
    const std::size_t top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

double SpanRecorder::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const auto& s : spans_)
    if (s.name == name) total += s.end_us - s.start_us;
  return total / 1e3;
}

std::vector<double> SpanRecorder::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  return out;
}

double SpanRecorder::uncovered_share(std::string_view root) const {
  double root_us = 0.0;
  double covered_us = 0.0;
  for (const auto& s : spans_) {
    if (s.name == root) root_us += s.end_us - s.start_us;
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == root)
      covered_us += s.end_us - s.start_us;
  }
  return root_us > 0.0 ? (root_us - covered_us) / root_us : 0.0;
}

void SpanRecorder::write_json(const std::string& path,
                              const std::string& host) const {
  std::ofstream out(path);
  out << "{\"host\":" << host << ",\"spans\":[";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (i > 0) out << ',';
    out << "{\"id\":" << i << ",\"name\":\""
        << cellscope::obs::json_escape(s.name) << "\"";
    std::snprintf(buf, sizeof(buf), ",\"start_us\":%.3f", s.start_us);
    out << buf;
    std::snprintf(buf, sizeof(buf), ",\"end_us\":%.3f", s.end_us);
    out << buf << ",\"parent\":" << s.parent << '}';
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

void set_p50_p99(Outcome& out, const std::string& name,
                 const std::vector<double>& samples, const std::string& unit) {
  out.set(name + ".p50", quantile(samples, 0.5), unit);
  out.set(name + ".p99", quantile(samples, 0.99), unit);
}

}  // namespace perfbench
