// Small string helpers shared by CSV/trace parsing and table rendering.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cellscope {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Strips ASCII whitespace from both ends.
std::string trim(std::string_view s);

/// ASCII lower-case copy.
std::string to_lower(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Joins elements with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Fixed-precision decimal formatting (no locale surprises).
std::string format_double(double v, int precision);

/// Formats a byte count as a human-readable quantity ("1.25 GB").
std::string format_bytes(double bytes);

/// The checked number parse behind every flag, environment variable and
/// URL number: the whole of `text` must be a decimal integer in
/// [min, max]. Junk ("abc", "12x", ""), a sign or space (" 80", "+80"),
/// overflow and out-of-range values give nullopt — never 0, a wrapped
/// value or a clamp. Callers choose the failure mode (exit 2, a warning,
/// a 400).
std::optional<std::uint64_t> parse_u64(
    std::string_view text, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The one reader of numeric environment knobs: the value of variable
/// `name` through parse_u64 in [min, max], or `fallback` when it is unset
/// or empty. Junk, overflow and out-of-range values throw InvalidArgument
/// naming the variable and the range.
std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t min = 0,
                      std::uint64_t max =
                          std::numeric_limits<std::uint64_t>::max());

/// As parse_u64, for a finite decimal number in [min, max].
std::optional<double> parse_f64(std::string_view text, double min,
                                double max);

}  // namespace cellscope
