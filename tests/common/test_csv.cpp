#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace cellscope {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("cs_csv_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST_F(CsvTest, RoundTripsSimpleRows) {
  {
    CsvWriter writer(path());
    writer.write_row({"a", "b", "c"});
    writer.write_row({"1", "2", "3"});
    writer.close();
  }
  const auto rows = CsvReader::read_file(path());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST_F(CsvTest, RoundTripsQuotedFields) {
  {
    CsvWriter writer(path());
    writer.write_row({"has,comma", "has\"quote", "plain"});
    writer.close();
  }
  const auto rows = CsvReader::read_file(path());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "has,comma");
  EXPECT_EQ(rows[0][1], "has\"quote");
  EXPECT_EQ(rows[0][2], "plain");
}

TEST_F(CsvTest, WritesDoublesAtRequestedPrecision) {
  {
    CsvWriter writer(path());
    writer.write_row(std::vector<double>{1.23456789, 2.0}, 3);
    writer.close();
  }
  const auto rows = CsvReader::read_file(path());
  EXPECT_EQ(rows[0][0], "1.235");
  EXPECT_EQ(rows[0][1], "2.000");
}

TEST_F(CsvTest, EmptyFieldsSurvive) {
  {
    CsvWriter writer(path());
    writer.write_row({"", "x", ""});
    writer.close();
  }
  const auto rows = CsvReader::read_file(path());
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", "x", ""}));
}

TEST(Csv, ParseLineHandlesEscapedQuotes) {
  const auto cells = CsvReader::parse_line(R"("say ""hi""",2)");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0], "say \"hi\"");
  EXPECT_EQ(cells[1], "2");
}

TEST(Csv, ParseEmptyLineYieldsOneEmptyCell) {
  const auto cells = CsvReader::parse_line("");
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], "");
}

TEST(Csv, EscapePassesPlainTextThrough) {
  // The writer quotes a cell only where RFC 4180 needs it.
  const auto path = std::filesystem::temp_directory_path() /
                    ("cs_csv_escape_" + std::to_string(::getpid()) + ".csv");
  {
    CsvWriter writer(path.string());
    writer.write_row({"plain", "a,b", "q\"q"});
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  EXPECT_EQ(text.str(), "plain,\"a,b\",\"q\"\"q\"\n");
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(CsvReader::read_file("/nonexistent/dir/file.csv"), IoError);
  EXPECT_THROW(CsvWriter("/nonexistent/dir/file.csv"), IoError);
}

TEST_F(CsvTest, ReaderStripsCarriageReturns) {
  {
    std::ofstream out(path());
    out << "a,b\r\n1,2\r\n";
  }
  const auto rows = CsvReader::read_file(path());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b");
  EXPECT_EQ(rows[1][1], "2");
}

}  // namespace
}  // namespace cellscope
