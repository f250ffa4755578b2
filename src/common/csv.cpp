#include "common/csv.h"

#include "common/error.h"
#include "common/string_util.h"

namespace cellscope {

namespace {

/// Quotes a cell if needed per RFC 4180.
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvWriter::CsvWriter(const std::string& path) : out_(path), path_(path) {
  if (!out_) throw IoError("cannot open for writing: " + path);
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(cells[i]);
  }
  out_ << '\n';
  if (!out_) throw IoError("write failed: " + path_);
}

void CsvWriter::write_row(const std::vector<double>& cells, int precision) {
  std::vector<std::string> formatted;
  formatted.reserve(cells.size());
  for (const double v : cells) formatted.push_back(format_double(v, precision));
  write_row(formatted);
}

void CsvWriter::close() {
  if (out_.is_open()) out_.close();
}

std::vector<std::vector<std::string>> CsvReader::read_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open for reading: " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    rows.push_back(parse_line(line));
  }
  return rows;
}

std::vector<std::string> CsvReader::parse_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  cells.push_back(cur);
  return cells;
}

bool CsvReader::split_unquoted(std::string_view line,
                               std::vector<std::string_view>& cells) {
  cells.clear();
  if (line.find('"') != std::string_view::npos) return false;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = line.find(',', begin);
    if (comma == std::string_view::npos) {
      cells.push_back(line.substr(begin));
      return true;
    }
    cells.push_back(line.substr(begin, comma - begin));
    begin = comma + 1;
  }
}

}  // namespace cellscope
