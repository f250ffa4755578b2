// json_fuzz — deterministic seeded mutation fuzzer for JsonValue::parse
// (common/json.h; ctest label `fault`; no external deps).
//
// First a fixed table of documents with known outcomes: nesting at and
// one past the 256 limit (arrays, objects, mixed), surrogate pairs, lone
// and misordered surrogates, bad and truncated escapes, non-JSON
// numbers, trailing garbage. Then N seeded rounds over a corpus of valid
// documents, each damaged in one way — truncation, bit flips, inserted
// JSON punctuation, a slice duplicated, the document wrapped 250-260
// levels deep, a long string with escapes, a bad escape or surrogate
// spliced into a string — or not at all (a control). Checked every
// parse:
//   * it returns a value or throws InvalidArgument, nothing else;
//   * an accepted value written back canonically parses again to the
//     same canonical text (nothing was clamped or lost on the way in);
//   * it asks operator new for at most 256 bytes per input byte plus
//     64 KiB.
// Anything else fails the run.
//
// Usage: json_fuzz [iterations] [seed]   (defaults: 4000, 20151030)
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "alloc_meter.h"
#include "common/error.h"
#include "common/json.h"
#include "common/string_util.h"

namespace {

using namespace cellscope;

constexpr std::size_t kMaxDepth = 256;  // JsonValue::parse's limit

/// Bytes-per-input-byte allowance of one parse, plus a fixed 64 KiB.
constexpr std::size_t kAllocPerByte = 256;
constexpr std::size_t kAllocFixed = std::size_t{64} << 10;

/// Canonical text of a value: numbers at 17 significant digits, control
/// bytes, '"' and '\\' escaped, every other byte as is, object keys in
/// map order.
void write_canonical(const JsonValue& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value.as_number());
    out += buf;
  } else if (value.is_string()) {
    out += '"';
    for (const char c : value.as_string()) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
  } else if (value.is_array()) {
    out += '[';
    bool first = true;
    for (const auto& item : value.as_array()) {
      if (!first) out += ',';
      first = false;
      write_canonical(item, out);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [key, item] : value.as_object()) {
      if (!first) out += ',';
      first = false;
      write_canonical(JsonValue(key), out);
      out += ':';
      write_canonical(item, out);
    }
    out += '}';
  }
}

std::string canonical(const JsonValue& value) {
  std::string out;
  write_canonical(value, out);
  return out;
}

std::string nested(std::size_t depth, const std::string& open,
                   const std::string& close, const std::string& core) {
  std::string out;
  for (std::size_t i = 0; i < depth; ++i) out += open;
  out += core;
  for (std::size_t i = 0; i < depth; ++i) out += close;
  return out;
}

/// Documents with a known outcome; `want` is the canonical text of an
/// accepted one, nullopt for one that must be rejected.
struct Case {
  std::string text;
  std::optional<std::string> want;
};

std::vector<Case> fixed_cases() {
  std::vector<Case> cases = {
      {"0", "0"},
      {"-0", "-0"},
      {"1e-400", "0"},  // underflow rounds toward zero
      {" [1, 2.5e3, true, false, null] ", "[1,2500,true,false,null]"},
      {"{\"b\":1,\"a\":{},\"b\":[]}", "{\"a\":{},\"b\":[]}"},  // last key wins
      {"\"\\ud83d\\ude00\"", "\"\xF0\x9F\x98\x80\""},
      {"\"\\u00e9\\u4e2d\\/\\b\\f\\n\\r\\t\"",
       "\"\xC3\xA9\xE4\xB8\xAD/\\u0008\\u000c\\u000a\\u000d\\u0009\""},
      {"\"\\u0000\"", "\"\\u0000\""},
      {"\"\\uDBFF\\uDFFF\"", "\"\xF4\x8F\xBF\xBF\""},
      {"", std::nullopt},
      {" ", std::nullopt},
      {"01", std::nullopt},
      {"+1", std::nullopt},
      {".5", std::nullopt},
      {"1.", std::nullopt},
      {"1e", std::nullopt},
      {"-", std::nullopt},
      {"NaN", std::nullopt},
      {"Infinity", std::nullopt},
      {"1e999", std::nullopt},
      {"-1e999", std::nullopt},
      {"0x10", std::nullopt},
      {"\"\\ud800\"", std::nullopt},          // lone high surrogate
      {"\"\\udc00\"", std::nullopt},          // lone low surrogate
      {"\"\\udc00\\ud800\"", std::nullopt},   // misordered pair
      {"\"\\ud800\\u0041\"", std::nullopt},   // high then a non-surrogate
      {"\"\\ud800\\ud800\"", std::nullopt},   // high then high
      {"\"\\ud800x\"", std::nullopt},
      {"\"\\ud800\\", std::nullopt},
      {"\"\\x\"", std::nullopt},
      {"\"\\u12G4\"", std::nullopt},
      {"\"\\u12\"", std::nullopt},
      {"\"\\", std::nullopt},
      {"\"abc", std::nullopt},
      {"[1,]", std::nullopt},
      {"[1 2]", std::nullopt},
      {"{\"a\"}", std::nullopt},
      {"{\"a\":1,}", std::nullopt},
      {"{1:2}", std::nullopt},
      {"tru", std::nullopt},
      {"nul", std::nullopt},
      {"[1]x", std::nullopt},
      {"[1]]", std::nullopt},
  };
  // Nesting: exactly the limit parses, one more level is an error.
  cases.push_back({nested(kMaxDepth, "[", "]", ""),
                   nested(kMaxDepth, "[", "]", "")});
  cases.push_back({nested(kMaxDepth + 1, "[", "]", ""), std::nullopt});
  cases.push_back({nested(kMaxDepth - 1, "{\"k\":", "}", "{}"),
                   nested(kMaxDepth - 1, "{\"k\":", "}", "{}")});
  cases.push_back({nested(kMaxDepth, "{\"k\":", "}", "[]"), std::nullopt});
  cases.push_back({nested(kMaxDepth / 2, "[{\"k\":", "}]", "0"),
                   nested(kMaxDepth / 2, "[{\"k\":", "}]", "0")});
  cases.push_back({nested(kMaxDepth / 2, "[{\"k\":", "}]", "[]"),
                   std::nullopt});
  cases.push_back({std::string(1 << 20, '['), std::nullopt});
  return cases;
}

std::vector<std::string> corpus() {
  return {
      "{\"metrics\":{\"cellscope.io.trace_reads\":{\"type\":\"counter\","
      "\"value\":3},\"lat\":{\"p50\":1.25e-3,\"p99\":0.75}},"
      "\"verdicts\":[{\"check\":\"zscore_normalized\",\"passed\":true,"
      "\"value\":1.10054712e-14,\"detail\":\"worst (row 761)\"}]}",
      "[0,-1,2.5,-3.75e-8,1e308,4.9e-324,true,false,null,\"\",[],{}]",
      "\"esc \\\" \\\\ \\/ \\b \\f \\n \\r \\t \\u0041 \\u00e9 \\ud83d\\ude00\"",
      "{\"a\":[[[[1]]]],\"b\":{\"c\":{\"d\":[\"x\",{\"e\":null}]}}}",
      "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20]",
  };
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed), corpus_(corpus()) {}

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }

  std::string mutated() {
    std::string text = corpus_[below(corpus_.size())];
    switch (below(9)) {
      case 0:  // control
        break;
      case 1:  // truncate anywhere
        text.resize(below(text.size() + 1));
        break;
      case 2:  // flip 1..8 bits
        for (std::uint64_t f = 1 + below(8); f > 0; --f) {
          const std::size_t p = below(text.size());
          text[p] = static_cast<char>(text[p] ^ (1u << below(8)));
        }
        break;
      case 3: {  // insert JSON punctuation or a random byte
        static const char kBytes[] = "[]{}\",:\\u0123456789eE+-. \t\nntf";
        for (std::uint64_t n = 1 + below(6); n > 0; --n) {
          const char c = below(4) == 0
                             ? static_cast<char>(below(256))
                             : kBytes[below(sizeof(kBytes) - 1)];
          text.insert(below(text.size() + 1), 1, c);
        }
        break;
      }
      case 4: {  // duplicate a slice in place
        const std::size_t from = below(text.size());
        const std::size_t len = 1 + below(text.size() - from);
        const std::string slice = text.substr(from, len);
        for (std::uint64_t n = 1 + below(64); n > 0; --n)
          text.insert(from, slice);
        break;
      }
      case 5: {  // wrapped around the depth limit
        const std::size_t depth = kMaxDepth - 6 + below(12);
        text = below(2) == 0 ? nested(depth, "[", "]", text)
                             : nested(depth, "{\"k\":", "}", text);
        break;
      }
      case 6: {  // a long string, escapes included
        std::string body;
        static const char* const kPieces[] = {"a",      "\\n",    "\\\"",
                                              "\\u00e9", "\\ud83d\\ude00",
                                              "\xE4\xB8\xAD"};
        for (std::size_t n = 1000 + below(50000); n > 0; --n)
          body += kPieces[below(std::size(kPieces))];
        text = "[\"" + body + (below(8) == 0 ? "" : "\"") + "]";
        break;
      }
      default: {  // a bad escape or surrogate spliced into a string
        static const char* const kBad[] = {
            "\\ud800", "\\udc00", "\\udc00\\ud800", "\\ud800\\u0041",
            "\\ud800\\", "\\u", "\\u12", "\\uZZZZ", "\\x41", "\\",
            "\\u0000", "\\ud83d\\ude00"};
        text = "{\"k\":\"a" + std::string(kBad[below(std::size(kBad))]) +
               "b\"}";
      }
    }
    return text;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::string> corpus_;
};

/// Parses `text`; the canonical text of an accepted document, nullopt for
/// a rejected one. Records a failure for any other outcome.
template <typename Fail>
std::optional<std::string> parse_checked(const std::string& text, Fail fail) {
  try {
    const std::size_t before = test::allocated_bytes();
    std::optional<JsonValue> value;
    try {
      value = JsonValue::parse(text);
    } catch (const InvalidArgument&) {
    }
    const std::size_t allocated = test::allocated_bytes() - before;
    if (allocated > kAllocPerByte * text.size() + kAllocFixed)
      fail("parsing " + std::to_string(text.size()) + " bytes allocated " +
           std::to_string(allocated));
    if (!value) return std::nullopt;
    const std::string once = canonical(*value);
    const std::string twice = canonical(JsonValue::parse(once));
    if (twice != once)
      fail("canonical text changed on reparse: " + once.substr(0, 120) +
           " -> " + twice.substr(0, 120));
    return once;
  } catch (const std::exception& e) {
    fail(std::string("escaped exception: ") + e.what());
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::uint64_t> iterations =
      argc > 1 ? parse_u64(argv[1]) : 4000;
  const std::optional<std::uint64_t> seed =
      argc > 2 ? parse_u64(argv[2]) : 20151030;
  if (!iterations || !seed) {
    std::fprintf(stderr, "usage: json_fuzz [iterations] [seed]\n");
    return 2;
  }

  int failures = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;

  const auto cases = fixed_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "FAIL case %zu: %s\n", i, what.c_str());
      ++failures;
    };
    const auto got = parse_checked(cases[i].text, fail);
    if (got != cases[i].want)
      fail("\"" + cases[i].text.substr(0, 60) + "\" gave " +
           (got ? *got : std::string("a rejection")).substr(0, 60) +
           ", want " +
           (cases[i].want ? *cases[i].want : std::string("a rejection"))
               .substr(0, 60));
  }

  Mutator mutator(*seed);
  for (std::uint64_t round = 0; round < *iterations; ++round) {
    const auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "FAIL round %llu: %s\n",
                   static_cast<unsigned long long>(round), what.c_str());
      ++failures;
    };
    if (parse_checked(mutator.mutated(), fail))
      ++accepted;
    else
      ++rejected;
  }

  std::printf(
      "json_fuzz: %zu fixed cases, %llu rounds (seed %llu): %llu accepted, "
      "%llu rejected, %d failures\n",
      cases.size(), static_cast<unsigned long long>(*iterations),
      static_cast<unsigned long long>(*seed),
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(rejected), failures);
  return failures == 0 ? 0 : 1;
}
