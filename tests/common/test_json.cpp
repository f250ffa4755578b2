#include "common/json.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/error.h"

namespace cellscope {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-2.5e3").as_number(), -2500.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedContainers) {
  const auto v = JsonValue::parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_TRUE(a[2].at("b").as_bool());
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_EQ(v.at("e").as_string(), "x");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("zz"));
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\nd\te")").as_string(),
            "a\"b\\c\nd\te");
  // \uXXXX escapes decode to UTF-8: ASCII, 2-byte, and a surrogate pair
  // for U+1F600 (4-byte).
  EXPECT_EQ(JsonValue::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(JsonValue::parse(R"("\u00e9")").as_string(), "\xc3\xa9");
  EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
  EXPECT_THROW(JsonValue::parse(R"("\ud83d")"), InvalidArgument);  // lone hi
  EXPECT_THROW(JsonValue::parse(R"("\uZZZZ")"), InvalidArgument);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse(""), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("[1,]"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("nul"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("1 2"), InvalidArgument);  // trailing token
  EXPECT_THROW(JsonValue::parse("\"unterminated"), InvalidArgument);
}

TEST(Json, NumbersFollowTheJsonGrammarAndStayFinite) {
  for (const char* bad :
       {"NaN", "Infinity", "-inf", "0x1p3", "+1", "01", ".5", "1e999",
        "-1e999", "1.", "1e", "-", "[01]", "[1.5.2]"}) {
    try {
      JsonValue::parse(bad);
      ADD_FAILURE() << bad << " parsed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("finite JSON number"),
                std::string::npos)
          << bad << ": " << e.what();
    }
  }
  EXPECT_DOUBLE_EQ(JsonValue::parse("-0.5E+2").as_number(), -50.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("1e308").as_number(), 1e308);
  // Underflow is a valid number that rounds toward zero.
  EXPECT_EQ(JsonValue::parse("1e-400").as_number(), 0.0);
}

TEST(Json, NumbersEndAtTheViewNotAtATerminator) {
  EXPECT_DOUBLE_EQ(JsonValue::parse(std::string_view("123", 2)).as_number(),
                   12.0);
  const auto array = JsonValue::parse(std::string_view("[4.25]e9", 6));
  EXPECT_DOUBLE_EQ(array.as_array()[0].as_number(), 4.25);
}

TEST(Json, AccessorMismatchesThrow) {
  const auto v = JsonValue::parse("[1]");
  EXPECT_THROW(v.as_object(), InvalidArgument);
  EXPECT_THROW(v.as_number(), InvalidArgument);
  EXPECT_THROW(v.at("k"), InvalidArgument);
  const auto obj = JsonValue::parse("{\"a\": 1}");
  EXPECT_THROW(obj.at("missing"), InvalidArgument);
  EXPECT_DOUBLE_EQ(obj.number_or("a", -1.0), 1.0);
  EXPECT_DOUBLE_EQ(obj.number_or("missing", -1.0), -1.0);
}

TEST(Json, RoundTripsMetricSnapshotShape) {
  // The shape snapshot_json() emits: nested objects with numeric leaves
  // and bucket arrays.
  const auto v = JsonValue::parse(
      R"({"counters":{"a.b":3},"histograms":{"h":{"count":2,"p50":1.5,)"
      R"("buckets":[{"le":1,"count":0},{"le":10,"count":2}]}}})");
  EXPECT_DOUBLE_EQ(v.at("counters").at("a.b").as_number(), 3.0);
  const auto& h = v.at("histograms").at("h");
  EXPECT_DOUBLE_EQ(h.number_or("p50", 0.0), 1.5);
  EXPECT_EQ(h.at("buckets").as_array().size(), 2u);
}

TEST(Json, NestingIsBoundedNotAStackOverflow) {
  // 256 levels parse; one more is an InvalidArgument. A request body of
  // a million '[' (inside the server's 1 MiB limit) used to recurse
  // until the stack ran out.
  const auto nested = [](std::size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  EXPECT_NO_THROW(JsonValue::parse(nested(256, '[', ']')));
  EXPECT_THROW(JsonValue::parse(nested(257, '[', ']')), InvalidArgument);
  EXPECT_THROW(JsonValue::parse(std::string(1 << 20, '[')), InvalidArgument);
  std::string objects;
  for (int i = 0; i < 300; ++i) objects += "{\"a\":";
  objects += "1" + std::string(300, '}');
  EXPECT_THROW(JsonValue::parse(objects), InvalidArgument);
}

}  // namespace
}  // namespace cellscope
