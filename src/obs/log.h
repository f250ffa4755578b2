// Leveled, thread-safe structured logging.
//
// Log lines are flat key=value records ("logfmt") written to stderr and,
// optionally, an append-mode file sink. The level is controlled at runtime
// by the CELLSCOPE_LOG environment variable ("trace".."error", "off";
// optionally ",file=PATH" to add a file sink) and at compile time by the
// CELLSCOPE_LOG_FLOOR macro, which lets release builds strip levels below
// the floor entirely. Disabled levels cost one relaxed atomic load.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace cellscope::obs {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Lowest level compiled into the binary (numeric LogLevel value).
/// Calls below the floor are dead code the optimizer removes.
#ifndef CELLSCOPE_LOG_FLOOR
#define CELLSCOPE_LOG_FLOOR 0
#endif

/// "trace".."error" / "off"; throws InvalidArgument on anything else.
LogLevel parse_log_level(std::string_view text);

/// Canonical lowercase name of a level.
std::string_view log_level_name(LogLevel level);

/// One key=value field of a structured log line. Values are stored raw;
/// formatting quotes and escapes them as needed.
struct LogField {
  std::string key;
  std::string value;

  LogField(std::string_view k, std::string_view v) : key(k), value(v) {}
  LogField(std::string_view k, const char* v) : key(k), value(v) {}
  LogField(std::string_view k, const std::string& v) : key(k), value(v) {}
  LogField(std::string_view k, bool v)
      : key(k), value(v ? "true" : "false") {}
  LogField(std::string_view k, double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  LogField(std::string_view k, T v) : key(k), value(std::to_string(v)) {}
};

/// Quotes and escapes a field value when it contains spaces, quotes, '=',
/// backslashes, control characters, or is empty; returns it verbatim
/// otherwise. Control characters without a short escape (\n, \r, \t)
/// are emitted as \u00XX so every byte round-trips through
/// unescape_log_value / parse_log_line.
std::string escape_log_value(std::string_view value);

/// Inverse of escape_log_value: strips surrounding quotes (when present)
/// and resolves \", \\, \n, \r, \t, and \u00XX escapes. Unquoted input
/// is returned verbatim.
std::string unescape_log_value(std::string_view escaped);

/// Parses one logfmt line back into its fields (ts/level/event included),
/// resolving quoting and escapes — the round-trip counterpart of
/// format_log_line, used by log-reading tools and the regression tests.
std::vector<LogField> parse_log_line(std::string_view line);

/// Formats one full log line (without trailing newline):
///   ts=<ISO8601.ms> level=<level> event=<event> k1=v1 k2="v 2"
std::string format_log_line(LogLevel level, std::string_view event,
                            const std::vector<LogField>& fields);

/// The process-wide logger.
class Logger {
 public:
  /// Singleton; first call reads CELLSCOPE_LOG.
  static Logger& instance();

  LogLevel level() const noexcept {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  void set_level(LogLevel level) noexcept {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }

  /// True when a record at `level` would be emitted.
  bool enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >= CELLSCOPE_LOG_FLOOR &&
           level >= this->level() && level != LogLevel::kOff;
  }

  /// Adds an append-mode file sink (throws IoError on open failure).
  void set_file(const std::string& path);
  void close_file();

  /// Enables/disables the stderr sink (on by default).
  void set_stderr(bool enabled);

  void log(LogLevel level, std::string_view event,
           const std::vector<LogField>& fields);
  void log(LogLevel level, std::string_view event,
           std::initializer_list<LogField> fields = {}) {
    if (!enabled(level)) return;
    log(level, event, std::vector<LogField>(fields));
  }

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

 private:
  Logger();
  ~Logger();

  std::atomic<int> level_;
  std::atomic<bool> to_stderr_{true};
  struct Sink;
  Sink* sink_;  // mutex + optional FILE*, heap-held so it outlives races
};

/// Convenience wrappers over Logger::instance().
inline void log_event(LogLevel level, std::string_view event,
                      std::initializer_list<LogField> fields = {}) {
  Logger::instance().log(level, event, fields);
}
inline void log_debug(std::string_view event,
                      std::initializer_list<LogField> fields = {}) {
  log_event(LogLevel::kDebug, event, fields);
}
inline void log_info(std::string_view event,
                     std::initializer_list<LogField> fields = {}) {
  log_event(LogLevel::kInfo, event, fields);
}
inline void log_warn(std::string_view event,
                     std::initializer_list<LogField> fields = {}) {
  log_event(LogLevel::kWarn, event, fields);
}

}  // namespace cellscope::obs
