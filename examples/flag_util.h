// Checked `--name=value` numeric flags shared by the example binaries
// (cellscoped, stream_replay, trace_convert).
//
// A value must be the whole argument remainder, parsed by std::from_chars
// and inside the flag's [min, max] range. Junk ("abc", "12x", ""),
// overflow and out-of-range values print one line naming the flag and
// exit with status 2 — the status of an unknown flag — instead of
// silently becoming 0, wrapping, or being truncated by a narrowing cast.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace cellscope::examples {

namespace detail {

/// The value of `--name=value`, or nullopt when `arg` is another flag.
inline std::optional<std::string_view> flag_value(std::string_view arg,
                                                  std::string_view name) {
  if (!arg.starts_with(name) || arg.size() <= name.size() ||
      arg[name.size()] != '=')
    return std::nullopt;
  return arg.substr(name.size() + 1);
}

template <typename T>
[[noreturn]] void reject_flag(std::string_view name, std::string_view value,
                              std::string_view kind, T min, T max) {
  std::cerr << "invalid " << name << "='" << value << "': expected " << kind
            << " in [" << min << ", " << max << "]\n";
  std::exit(2);
}

}  // namespace detail

/// Parses `arg` when it is `name=value`: returns the value, or nullopt
/// when `arg` is some other flag. Exits 2 unless the value is a decimal
/// integer in [min, max].
inline std::optional<std::uint64_t> flag_u64(
    std::string_view arg, std::string_view name, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const auto value = detail::flag_value(arg, name);
  if (!value) return std::nullopt;
  std::uint64_t parsed = 0;
  const char* end = value->data() + value->size();
  const auto [ptr, ec] = std::from_chars(value->data(), end, parsed);
  if (ec != std::errc{} || ptr != end || parsed < min || parsed > max)
    detail::reject_flag(name, *value, "an integer", min, max);
  return parsed;
}

/// As flag_u64, for a finite decimal number in [min, max].
inline std::optional<double> flag_f64(std::string_view arg,
                                      std::string_view name, double min,
                                      double max) {
  const auto value = detail::flag_value(arg, name);
  if (!value) return std::nullopt;
  double parsed = 0.0;
  const char* end = value->data() + value->size();
  const auto [ptr, ec] = std::from_chars(value->data(), end, parsed);
  if (ec != std::errc{} || ptr != end || !(parsed >= min && parsed <= max))
    detail::reject_flag(name, *value, "a number", min, max);
  return parsed;
}

}  // namespace cellscope::examples
