#include "obs/log.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <chrono>
#include <mutex>

#include "common/error.h"
#include "common/string_util.h"

namespace cellscope::obs {

namespace {

constexpr std::string_view kLevelNames[] = {"trace", "debug", "info",
                                            "warn",  "error", "off"};

bool needs_quoting(std::string_view value) {
  if (value.empty()) return true;
  for (const char c : value) {
    if (c == ' ' || c == '"' || c == '=' || c == '\\' ||
        static_cast<unsigned char>(c) < 0x20)
      return true;
  }
  return false;
}

std::string timestamp_now() {
  using namespace std::chrono;
  const auto now = system_clock::now();
  const auto secs = system_clock::to_time_t(now);
  const auto ms =
      duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[40];
  const std::size_t len = std::strftime(buf, sizeof(buf), "%FT%T", &tm);
  char out[48];
  std::snprintf(out, sizeof(out), "%.*s.%03dZ", static_cast<int>(len), buf,
                static_cast<int>(ms));
  return out;
}

}  // namespace

LogLevel parse_log_level(std::string_view text) {
  for (int i = 0; i <= static_cast<int>(LogLevel::kOff); ++i)
    if (text == kLevelNames[i]) return static_cast<LogLevel>(i);
  throw InvalidArgument("unknown log level: " + std::string(text));
}

std::string_view log_level_name(LogLevel level) {
  const int i = static_cast<int>(level);
  CS_CHECK_MSG(i >= 0 && i <= static_cast<int>(LogLevel::kOff),
               "log level out of range");
  return kLevelNames[i];
}

LogField::LogField(std::string_view k, double v) : key(k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  value = buf;
}

std::string escape_log_value(std::string_view value) {
  if (!needs_quoting(value)) return std::string(value);
  std::string out;
  out.reserve(value.size() + 2);
  out.push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        // Remaining control characters must not reach the line raw: a
        // stray 0x01 (or an embedded NUL) would break line-oriented
        // logfmt consumers. \u00XX round-trips via unescape_log_value.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string unescape_log_value(std::string_view escaped) {
  // Unquoted values carry no escapes by construction.
  if (escaped.size() < 2 || escaped.front() != '"' || escaped.back() != '"')
    return std::string(escaped);
  const std::string_view body = escaped.substr(1, escaped.size() - 2);
  std::string out;
  out.reserve(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] != '\\' || i + 1 >= body.size()) {
      out.push_back(body[i]);
      continue;
    }
    const char next = body[++i];
    switch (next) {
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'u': {
        unsigned code = 0;
        if (i + 4 < body.size() &&
            std::sscanf(std::string(body.substr(i + 1, 4)).c_str(), "%4x",
                        &code) == 1) {
          out.push_back(static_cast<char>(code & 0xFF));
          i += 4;
        } else {
          out.push_back('u');
        }
        break;
      }
      default:
        out.push_back(next);  // \" and \\ and anything unknown
    }
  }
  return out;
}

std::vector<LogField> parse_log_line(std::string_view line) {
  std::vector<LogField> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) break;
    const std::size_t key_begin = i;
    while (i < line.size() && line[i] != '=' && line[i] != ' ') ++i;
    if (i >= line.size() || line[i] != '=') break;  // trailing bare token
    const std::string_view key = line.substr(key_begin, i - key_begin);
    ++i;  // consume '='
    std::size_t value_begin = i;
    std::string_view raw;
    if (i < line.size() && line[i] == '"') {
      ++i;  // opening quote
      while (i < line.size()) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          i += 2;
          continue;
        }
        if (line[i] == '"') break;
        ++i;
      }
      if (i < line.size()) ++i;  // closing quote
      raw = line.substr(value_begin, i - value_begin);
    } else {
      while (i < line.size() && line[i] != ' ') ++i;
      raw = line.substr(value_begin, i - value_begin);
    }
    fields.emplace_back(key, unescape_log_value(raw));
  }
  return fields;
}

std::string format_log_line(LogLevel level, std::string_view event,
                            const std::vector<LogField>& fields) {
  std::string line = "ts=" + timestamp_now();
  line += " level=";
  line += log_level_name(level);
  line += " event=";
  line += escape_log_value(event);
  for (const auto& f : fields) {
    line += ' ';
    line += f.key;
    line += '=';
    line += escape_log_value(f.value);
  }
  return line;
}

struct Logger::Sink {
  std::mutex mutex;
  std::FILE* file = nullptr;
};

Logger::Logger() : level_(static_cast<int>(LogLevel::kWarn)),
                   sink_(new Sink) {
  // CELLSCOPE_LOG = <level>[,file=PATH]. An unknown level or an
  // unopenable sink must not take the process down: say so once and keep
  // the default level / stderr alone.
  const char* env = std::getenv("CELLSCOPE_LOG");
  if (!env || !*env) return;
  for (const auto& part : split(env, ',')) {
    const auto token = trim(part);
    if (token.empty()) continue;
    try {
      if (token.starts_with("file="))
        set_file(std::string(token.substr(5)));
      else
        set_level(parse_log_level(token));
    } catch (const Error& e) {
      std::fprintf(stderr, "cellscope: ignoring CELLSCOPE_LOG: %s\n",
                   e.what());
    }
  }
}

Logger::~Logger() {
  close_file();
  // sink_ is intentionally leaked: log calls from other static destructors
  // must not touch a destroyed mutex.
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (!file) throw IoError("cannot open log sink: " + path);
  std::lock_guard<std::mutex> lock(sink_->mutex);
  if (sink_->file) std::fclose(sink_->file);
  sink_->file = file;
}

void Logger::close_file() {
  std::lock_guard<std::mutex> lock(sink_->mutex);
  if (sink_->file) {
    std::fclose(sink_->file);
    sink_->file = nullptr;
  }
}

void Logger::set_stderr(bool enabled) {
  to_stderr_.store(enabled, std::memory_order_relaxed);
}

void Logger::log(LogLevel level, std::string_view event,
                 const std::vector<LogField>& fields) {
  if (!enabled(level)) return;
  const std::string line = format_log_line(level, event, fields);
  std::lock_guard<std::mutex> lock(sink_->mutex);
  if (to_stderr_.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  if (sink_->file) {
    std::fprintf(sink_->file, "%s\n", line.c_str());
    std::fflush(sink_->file);
  }
}

}  // namespace cellscope::obs
