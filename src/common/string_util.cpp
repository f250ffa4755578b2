#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "common/error.h"

namespace cellscope {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string format_bytes(double bytes) {
  static const char* kUnits[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int u = 0;
  double v = std::fabs(bytes);
  while (v >= 1000.0 && u < 5) {
    v /= 1000.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%.2f %s", bytes < 0 ? "-" : "", v,
                kUnits[u]);
  return buf;
}

std::optional<std::uint64_t> parse_u64(std::string_view text,
                                       std::uint64_t min, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < min || value > max)
    return std::nullopt;
  return value;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t min, std::uint64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  if (const auto parsed = parse_u64(env, min, max)) return *parsed;
  throw InvalidArgument("invalid " + std::string(name) + "='" + env +
                        "': expected an integer in [" + std::to_string(min) +
                        ", " + std::to_string(max) + "]");
}

std::optional<double> parse_f64(std::string_view text, double min,
                                double max) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
      value < min || value > max)
    return std::nullopt;
  return value;
}

}  // namespace cellscope
