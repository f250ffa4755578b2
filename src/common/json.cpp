#include "common/json.h"

#include <cstdlib>

#include "common/error.h"

namespace cellscope {

namespace {

/// Appends one Unicode code point as UTF-8.
void append_utf8(std::string& out, unsigned int cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  static constexpr std::size_t kMaxDepth = 256;

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument("json parse error at offset " +
                          std::to_string(pos_) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const {
    if (pos_ >= text_.size())
      throw InvalidArgument("json parse error at offset " +
                            std::to_string(pos_) +
                            ": unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
      case '[': {
        // Bounded recursion: a 1 MiB request body of '[' must be a
        // parse error, not a stack overflow.
        if (++depth_ > kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        JsonValue value = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.insert_or_assign(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(object));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(array));
    }
  }

  JsonValue parse_number() {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) fail("invalid number");
    pos_ += static_cast<std::size_t>(end - begin);
    return JsonValue(value);
  }

  unsigned int parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned int value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned int>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<unsigned int>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<unsigned int>(c - 'A' + 10);
      else
        fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned int cp = parse_hex4();
          // Surrogate pair: a high half must be followed by a low half
          // (and a low half must never stand alone).
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (text_.substr(pos_, 2) != "\\u") fail("lone high surrogate");
            pos_ += 2;
            const unsigned int low = parse_hex4();
            if (low >= 0xDC00 && low <= 0xDFFF)
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            else
              fail("invalid low surrogate");
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects currently open
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (!is_bool()) throw InvalidArgument("json value is not a bool");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) throw InvalidArgument("json value is not a number");
  return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) throw InvalidArgument("json value is not a string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) throw InvalidArgument("json value is not an array");
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) throw InvalidArgument("json value is not an object");
  return std::get<Object>(value_);
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const auto& object = as_object();
  const auto it = object.find(std::string(key));
  if (it == object.end())
    throw InvalidArgument("json object has no key: " + std::string(key));
  return it->second;
}

bool JsonValue::contains(std::string_view key) const {
  return is_object() &&
         as_object().find(std::string(key)) != as_object().end();
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  if (!contains(key)) return fallback;
  return at(key).as_number();
}

}  // namespace cellscope
