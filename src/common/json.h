// Minimal JSON document model and recursive-descent parser.
//
// Just enough JSON to read back what the obs layer writes (metric
// snapshots, run reports, BENCH_*.json perf reports): null, bool, double
// numbers, strings with the standard escapes (incl. \uXXXX -> UTF-8),
// arrays, and objects. Parsing a malformed document throws
// InvalidArgument with the byte offset; accessor kind mismatches throw
// too, so callers fail loudly instead of reading garbage.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace cellscope {

/// One parsed JSON value.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}
  explicit JsonValue(bool v) : value_(v) {}
  explicit JsonValue(double v) : value_(v) {}
  explicit JsonValue(std::string v) : value_(std::move(v)) {}
  explicit JsonValue(Array v) : value_(std::move(v)) {}
  explicit JsonValue(Object v) : value_(std::move(v)) {}

  /// Parses a complete document (trailing garbage, and arrays or objects
  /// nested more than 256 deep, are errors).
  static JsonValue parse(std::string_view text);

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member access; throws InvalidArgument when not an object or
  /// the key is absent.
  const JsonValue& at(std::string_view key) const;
  bool contains(std::string_view key) const;

  /// at(key).as_number(), or `fallback` when the key is absent.
  double number_or(std::string_view key, double fallback) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

}  // namespace cellscope
