#include "obs/timer.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/error.h"
#include "obs/metrics.h"

namespace cellscope::obs {

namespace {

std::chrono::steady_clock::time_point process_start() {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}

// Touch the start time as early as static init allows so ts values are
// close to true process-relative time.
[[maybe_unused]] const auto kStartAnchor = process_start();

std::uint64_t current_tid() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFF;
}

std::string format_us(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - process_start())
      .count();
}

double time_point_us(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration<double, std::micro>(tp - process_start())
      .count();
}

ScopedTimer::~ScopedTimer() {
  if (sink_) sink_->observe(elapsed_ms());
}

// Retention bound: a long-lived traced process (or a bench loop) must
// not grow span memory without limit. Past the cap, new spans are
// dropped and counted; clear() re-arms recording.
constexpr std::size_t kMaxTraceEvents = 131072;

struct StageTrace::State {
  mutable std::mutex mutex;
  std::vector<TraceEvent> events;
  std::unordered_map<std::uint64_t, std::size_t> open;  // token -> index
  std::uint64_t next_token = 1;
  std::uint64_t dropped = 0;
};

StageTrace::StageTrace() : state_(new State) {
  const char* env = std::getenv("CELLSCOPE_TRACE");
  if (env && *env) {
    exit_path_ = env;
    enabled_.store(true, std::memory_order_relaxed);
  }
}

StageTrace::~StageTrace() {
  if (!exit_path_.empty()) {
    try {
      write_chrome_trace(exit_path_);
    } catch (...) {
      // Exit-time trace dumps must never terminate the process.
    }
  }
  // state_ is intentionally leaked: spans closing from other static
  // destructors must not touch a destroyed mutex.
}

StageTrace& StageTrace::instance() {
  static StageTrace trace;
  return trace;
}

std::uint64_t StageTrace::begin(std::string_view name,
                                std::string_view category) {
  if (!enabled()) return 0;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.ts_us = now_us();
  event.dur_us = -1.0;  // open
  event.tid = current_tid();
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->events.size() >= kMaxTraceEvents) {
    ++state_->dropped;
    return 0;  // token 0 makes the matching end() a no-op
  }
  const std::uint64_t token = state_->next_token++;
  state_->open.emplace(token, state_->events.size());
  state_->events.push_back(std::move(event));
  return token;
}

void StageTrace::record_complete(std::string_view name,
                                 std::string_view category, double ts_us,
                                 double dur_us, std::string args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.ts_us = ts_us;
  event.dur_us = dur_us < 0.0 ? 0.0 : dur_us;
  event.tid = current_tid();
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->events.size() >= kMaxTraceEvents) {
    ++state_->dropped;
    return;
  }
  state_->events.push_back(std::move(event));
}

void StageTrace::end(std::uint64_t token) {
  if (token == 0) return;
  const double t = now_us();
  std::lock_guard<std::mutex> lock(state_->mutex);
  const auto it = state_->open.find(token);
  if (it == state_->open.end()) return;  // cleared mid-span
  auto& event = state_->events[it->second];
  event.dur_us = t - event.ts_us;
  state_->open.erase(it);
}

std::vector<TraceEvent> StageTrace::events() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  std::vector<TraceEvent> completed;
  completed.reserve(state_->events.size());
  for (const auto& e : state_->events)
    if (e.dur_us >= 0.0) completed.push_back(e);
  return completed;
}

void StageTrace::clear() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->events.clear();
  state_->open.clear();
  state_->dropped = 0;
}

std::uint64_t StageTrace::dropped() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->dropped;
}

std::string StageTrace::chrome_trace_json() const {
  const auto completed = events();
  std::string json = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : completed) {
    if (!first) json += ',';
    first = false;
    json += "{\"name\":\"" + json_escape(e.name) + "\",\"cat\":\"" +
            json_escape(e.category) + "\",\"ph\":\"X\",\"ts\":" +
            format_us(e.ts_us) + ",\"dur\":" + format_us(e.dur_us) +
            ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    if (!e.args.empty()) json += ",\"args\":{" + e.args + '}';
    json += '}';
  }
  json += "],\"displayTimeUnit\":\"ms\"}";
  return json;
}

void StageTrace::write_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) throw IoError("cannot write trace: " + path);
  std::fwrite(json.data(), 1, json.size(), file);
  std::fputc('\n', file);
  std::fclose(file);
}

StageSpan::StageSpan(std::string_view stage, std::string_view category,
                     LogLevel level)
    : stage_(stage),
      level_(level),
      token_(StageTrace::instance().begin(stage, category)),
      histogram_(&MetricsRegistry::instance().histogram(
          "cellscope." + std::string(category) + ".stage_ms")),
      start_(std::chrono::steady_clock::now()) {}

void StageSpan::annotate(LogField field) {
  fields_.push_back(std::move(field));
}

StageSpan::~StageSpan() {
  const double wall_ms = elapsed_ms();
  StageTrace::instance().end(token_);
  histogram_->observe(wall_ms);
  auto& logger = Logger::instance();
  if (logger.enabled(level_)) {
    std::vector<LogField> fields;
    fields.reserve(fields_.size() + 2);
    fields.emplace_back("stage", stage_);
    fields.emplace_back("wall_ms", wall_ms);
    for (auto& f : fields_) fields.push_back(std::move(f));
    logger.log(level_, "stage.done", fields);
  }
}

}  // namespace cellscope::obs
