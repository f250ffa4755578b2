#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace cellscope {
namespace {

TEST(StringUtil, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtil, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t a b \n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("District-5", "District-"));
  EXPECT_FALSE(starts_with("Dis", "District-"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
  EXPECT_EQ(format_double(2.5, 3), "2.500");
}

TEST(StringUtil, FormatBytesScalesUnits) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(1.5e3), "1.50 KB");
  EXPECT_EQ(format_bytes(2.4e15), "2.40 PB");
  EXPECT_EQ(format_bytes(-1.5e3), "-1.50 KB");
}

TEST(StringUtil, ParseU64TakesOnlyAWholeInRangeDecimal) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("8080"), 8080u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  // Junk, partial parses, signs and spaces.
  for (const char* bad : {"", "abc", "12x", "1.5", " 80", "80 ", "+80", "-1",
                          "0x10", "1e3"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  // Overflow is rejected, not saturated or wrapped.
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64(std::string(30, '9')).has_value());
  // Range bounds are inclusive.
  EXPECT_EQ(parse_u64("20", 20, 100), 20u);
  EXPECT_EQ(parse_u64("100", 20, 100), 100u);
  EXPECT_FALSE(parse_u64("19", 20, 100).has_value());
  EXPECT_FALSE(parse_u64("101", 20, 100).has_value());
  EXPECT_FALSE(parse_u64("65616", 0, 65535).has_value());
}

}  // namespace
}  // namespace cellscope
