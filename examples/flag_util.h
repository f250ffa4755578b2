// Checked numeric flags (`--name=value`) and positional arguments shared
// by the example binaries.
//
// A value must be the whole argument remainder, parsed by the checked
// parse_u64 of common/string_util.h and inside the flag's
// [min, max] range. Junk ("abc", "12x", ""), overflow and out-of-range
// values print one line naming the flag and exit with status 2 — the
// status of an unknown flag — instead of silently becoming 0, wrapping,
// or being truncated by a narrowing cast.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>

#include "common/string_util.h"

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
  const auto parsed = parse_u64(*value, min, max);
  if (!parsed) detail::reject_flag(name, *value, "an integer", min, max);
  return parsed;
}

/// Positional argument `index` as a decimal integer in [min, max], or
/// `fallback` when argv is shorter. Exits 2 like flag_u64 otherwise.
inline std::uint64_t arg_u64(
    int argc, char** argv, int index, std::string_view name,
    std::uint64_t fallback, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (argc <= index) return fallback;
  const auto parsed = parse_u64(argv[index], min, max);
  if (!parsed) detail::reject_flag(name, argv[index], "an integer", min, max);
  return *parsed;
}

}  // namespace cellscope::examples
