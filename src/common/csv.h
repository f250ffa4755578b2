// Minimal CSV reading/writing for trace files and figure exports.
//
// Fields containing the delimiter, quotes or newlines are quoted per RFC
// 4180. The reader handles quoted fields and escaped quotes; it does not
// support embedded newlines inside quoted fields (none of our files use
// them).
#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace cellscope {

/// Streams rows to a CSV file; throws IoError on failure.
class CsvWriter {
 public:
  /// Opens (truncates) the file.
  explicit CsvWriter(const std::string& path);

  /// Writes one row of already-formatted cells.
  void write_row(const std::vector<std::string>& cells);

  /// Convenience: writes a row of doubles at the given precision.
  void write_row(const std::vector<double>& cells, int precision = 6);

  /// Flushes and closes; called by the destructor as well.
  void close();

 private:
  std::ofstream out_;
  std::string path_;
};

/// Reads an entire CSV file into memory.
class CsvReader {
 public:
  /// Parses a file; throws IoError if it cannot be opened.
  static std::vector<std::vector<std::string>> read_file(
      const std::string& path);

  /// Parses a single CSV line.
  static std::vector<std::string> parse_line(const std::string& line);

  /// Zero-allocation tokenizer for the common case of a line with no
  /// quoted fields: splits `line` on commas into views over its bytes
  /// (valid only while `line`'s storage lives). Returns false — with
  /// `cells` unspecified — when the line contains a '"', in which case
  /// callers must fall back to parse_line. For quote-free lines the
  /// result matches parse_line cell for cell.
  static bool split_unquoted(std::string_view line,
                             std::vector<std::string_view>& cells);
};

}  // namespace cellscope
