// csv_trace_fuzz — deterministic seeded mutation fuzzer for the CSV trace
// reader (traffic/trace_codec.h; ctest label `fault`; no external deps).
//
// Starts from a trace the CSV writer produced (64- and 32-bit extremes,
// addresses that need quoting), then runs N seeded rounds. Each round
// damages the file in one way — truncation, bit flips, inserted bytes,
// overflowing, negative or signed numbers, a wrong column count, stray
// or unterminated quotes, CRLF and lone CR line ends, end < start — or
// not at all (a control), writes it, and reads it back through
// open_trace_reader(kCsv) in random batch sizes. Checked every round:
//   * the reader throws nothing;
//   * every data line is accepted or counted on
//     cellscope.io.rejected_lines, never both;
//   * the records equal an independent reference parse of the same
//     bytes: a line is kept only when it has six cells and its five
//     numbers are plain decimals that fit their fields (no clamping,
//     wrapping or sign handling), and then with exactly those values;
//   * the read asks operator new for at most 256 bytes per input byte
//     plus 1 MiB.
// Opening a missing file must throw IoError. Anything else fails the run.
//
// Usage: csv_trace_fuzz [iterations] [seed]   (defaults: 2000, 20151029)
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_meter.h"
#include "common/error.h"
#include "common/string_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "traffic/trace_codec.h"

namespace {

using namespace cellscope;

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// Bytes-per-input-byte allowance of one read, plus a fixed 1 MiB.
constexpr std::size_t kAllocPerByte = 256;
constexpr std::size_t kAllocFixed = std::size_t{1} << 20;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The fields of a trace file as text: a header row, then one row of six
/// already-escaped cells per record.
using Rows = std::vector<std::vector<std::string>>;

Rows split_rows(const std::string& text) {
  Rows rows;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    std::vector<std::string> cells;
    std::size_t cell = begin;
    bool quoted = false;
    for (std::size_t i = begin; i <= end; ++i) {
      if (i < end && text[i] == '"') quoted = !quoted;
      if (i == end || (text[i] == ',' && !quoted)) {
        cells.push_back(text.substr(cell, i - cell));
        cell = i + 1;
      }
    }
    rows.push_back(std::move(cells));
    begin = end + 1;
  }
  return rows;
}

std::string join_rows(const Rows& rows, const std::string& eol) {
  std::string text;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) text += ',';
      text += row[c];
    }
    text += eol;
  }
  return text;
}

// --- the reference parse ---------------------------------------------------

/// RFC 4180 cells of one line: a '"' toggles quoting, "" inside quotes is
/// one quote, and an unterminated quote runs to the end of the line.
std::vector<std::string> reference_cells(std::string_view line) {
  std::vector<std::string> cells(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') {
      if (quoted && i + 1 < line.size() && line[i + 1] == '"') {
        cells.back() += '"';
        ++i;
      } else {
        quoted = !quoted;
      }
    } else if (c == ',' && !quoted) {
      cells.emplace_back();
    } else {
      cells.back() += c;
    }
  }
  return cells;
}

/// A non-empty run of decimal digits whose value is at most `max`.
std::optional<std::uint64_t> reference_decimal(std::string_view cell,
                                               std::uint64_t max) {
  if (cell.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : cell) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

std::optional<TrafficLog> reference_record(std::string_view line) {
  const auto cells = reference_cells(line);
  if (cells.size() != 6) return std::nullopt;
  const auto user = reference_decimal(cells[0], kU64Max);
  const auto tower = reference_decimal(cells[1], kU32Max);
  const auto start = reference_decimal(cells[2], kU32Max);
  const auto end = reference_decimal(cells[3], kU32Max);
  const auto bytes = reference_decimal(cells[4], kU64Max);
  if (!user || !tower || !start || !end || !bytes || *end < *start)
    return std::nullopt;
  TrafficLog log;
  log.user_id = *user;
  log.tower_id = static_cast<std::uint32_t>(*tower);
  log.start_minute = static_cast<std::uint32_t>(*start);
  log.end_minute = static_cast<std::uint32_t>(*end);
  log.bytes = *bytes;
  log.address = cells[5];
  return log;
}

/// The records a reader must keep from `text`, and how many data lines it
/// must reject: lines split on '\n' (a final '\n' ends the last line),
/// one trailing '\r' dropped, the first line is the header.
struct Expected {
  std::vector<TrafficLog> records;
  std::size_t rejected = 0;
};

Expected reference_parse(const std::string& text) {
  Expected expected;
  std::size_t begin = 0;
  bool header = true;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (header) {
      header = false;
      continue;
    }
    if (auto log = reference_record(line))
      expected.records.push_back(std::move(*log));
    else
      ++expected.rejected;
  }
  return expected;
}

bool same_record(const TrafficLog& a, const TrafficLog& b) {
  return a.user_id == b.user_id && a.tower_id == b.tower_id &&
         a.start_minute == b.start_minute && a.end_minute == b.end_minute &&
         a.bytes == b.bytes && a.address == b.address;
}

// --- the mutator -----------------------------------------------------------

std::vector<TrafficLog> corpus_records() {
  std::vector<TrafficLog> logs;
  const char* const addresses[] = {"addr-1",       "",
                                   "a,b",          "say \"hi\"",
                                   "\"quoted\"",   "Zhongshan Rd 12",
                                   "trailing, ,,", "\xE5\x8C\x97\xE4\xBA\xAC"};
  for (std::uint32_t i = 0; i < 24; ++i) {
    TrafficLog log;
    log.user_id = i % 5 == 0 ? kU64Max - i : 1000003ull * i;
    log.tower_id = i % 7 == 0 ? static_cast<std::uint32_t>(kU32Max) : i * 17;
    log.start_minute = i * 10;
    log.end_minute = i % 3 == 0 ? log.start_minute : log.start_minute + 9;
    log.bytes = i % 4 == 0 ? kU64Max : 4096ull * i + 7;
    log.address = addresses[i % std::size(addresses)];
    logs.push_back(std::move(log));
  }
  return logs;
}

class Mutator {
 public:
  Mutator(std::uint64_t seed, std::string corpus)
      : rng_(seed), corpus_(std::move(corpus)), rows_(split_rows(corpus_)) {}

  std::uint64_t below(std::uint64_t n) { return rng_() % n; }

  /// One mutated trace file.
  std::string mutated() {
    switch (below(11)) {
      case 0:  // control
        return corpus_;
      case 1: {  // truncate anywhere (including to empty)
        return corpus_.substr(0, below(corpus_.size() + 1));
      }
      case 2: {  // flip 1..8 bits
        std::string text = corpus_;
        for (std::uint64_t f = 1 + below(8); f > 0; --f) {
          const std::size_t p = below(text.size());
          text[p] = static_cast<char>(text[p] ^ (1u << below(8)));
        }
        return text;
      }
      case 3: {  // insert bytes, structural ones likely
        std::string text = corpus_;
        static const char kBytes[] = {'\n', '\r', ',', '"', '\0', '-',
                                      '0',  '9',  ' ', '\t', '\xFF'};
        for (std::uint64_t n = 1 + below(6); n > 0; --n) {
          const char c = below(3) == 0
                             ? static_cast<char>(below(256))
                             : kBytes[below(std::size(kBytes))];
          text.insert(below(text.size() + 1), 1, c);
        }
        return text;
      }
      case 4: {  // a number at or past the edge of its field
        static const char* const kEdges[] = {
            "4294967295",           "4294967296",
            "18446744073709551615", "18446744073709551616",
            "99999999999999999999999999", "0000000000000000000000000042",
            "0",                    "00"};
        return with_cell(kEdges[below(std::size(kEdges))]);
      }
      case 5: {  // a number that is not a plain decimal
        static const char* const kSigned[] = {
            "-1", "-0", "+1", " 1", "1 ", "1e3", "0x10", "", "1.5",
            "\t7", "１", "12a", "--3"};
        return with_cell(kSigned[below(std::size(kSigned))]);
      }
      case 6: {  // a wrong column count or an empty line
        Rows rows = rows_;
        auto& row = rows[1 + below(rows.size() - 1)];
        switch (below(4)) {
          case 0: row.erase(row.begin() + static_cast<long>(below(row.size()))); break;
          case 1: row.insert(row.begin() + static_cast<long>(below(row.size() + 1)), "5"); break;
          case 2: row.clear(); break;
          default: row.assign(6 + below(3), "");
        }
        return join_rows(rows, "\n");
      }
      case 7: {  // quotes in the wrong places
        Rows rows = rows_;
        auto& cell = random_cell(rows);
        switch (below(5)) {
          case 0: cell = "\"" + cell + "\""; break;        // quoted number
          case 1: cell = "\"" + cell; break;               // unterminated
          case 2: cell.insert(below(cell.size() + 1), "\""); break;
          case 3: cell = "\"\"" + cell + "\"\"\""; break;  // doubled
          default: cell = "\"" + cell + ",1,2\"";          // hidden commas
        }
        return join_rows(rows, "\n");
      }
      case 8: {  // CRLF, lone CR or CR CR LF line ends
        static const char* const kEols[] = {"\r\n", "\r", "\r\r\n", "\n\r"};
        std::string text = join_rows(rows_, kEols[below(std::size(kEols))]);
        if (below(2) == 0) text.pop_back();  // no final line end
        return text;
      }
      case 9: {  // end_minute before start_minute
        Rows rows = rows_;
        auto& row = rows[1 + below(rows.size() - 1)];
        row[3] = std::to_string(below(10));
        row[2] = std::to_string(10 + below(100));
        return join_rows(rows, "\n");
      }
      default: {  // a long line: one huge cell
        Rows rows = rows_;
        random_cell(rows) = std::string(1000 + below(100000), '7');
        return join_rows(rows, "\n");
      }
    }
  }

 private:
  std::string& random_cell(Rows& rows) {
    auto& row = rows[1 + below(rows.size() - 1)];
    return row[below(row.size())];
  }

  /// The corpus with one numeric cell replaced.
  std::string with_cell(const std::string& value) {
    Rows rows = rows_;
    auto& row = rows[1 + below(rows.size() - 1)];
    row[below(5)] = value;
    return join_rows(rows, "\n");
  }

  std::mt19937_64 rng_;
  std::string corpus_;
  Rows rows_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::uint64_t> iterations =
      argc > 1 ? parse_u64(argv[1]) : 2000;
  const std::optional<std::uint64_t> seed =
      argc > 2 ? parse_u64(argv[2]) : 20151029;
  if (!iterations || !seed) {
    std::fprintf(stderr, "usage: csv_trace_fuzz [iterations] [seed]\n");
    return 2;
  }
  // Damaged files fail the trace_reject_ratio verdict on purpose; keep
  // its log lines out of the output.
  obs::Logger::instance().set_level(obs::LogLevel::kOff);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("csv_trace_fuzz-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string corpus_path = (dir / "corpus.csv").string();
  const std::string round_path = (dir / "round.csv").string();
  write_trace(corpus_path, corpus_records(), TraceCodec::kCsv);

  int failures = 0;
  const auto fail = [&](std::uint64_t round, const std::string& what) {
    std::fprintf(stderr, "FAIL round %llu: %s\n",
                 static_cast<unsigned long long>(round), what.c_str());
    ++failures;
  };

  try {
    open_trace_reader((dir / "missing.csv").string(), TraceCodec::kCsv);
    fail(0, "a missing file opened");
  } catch (const IoError&) {
  }

  const obs::Counter& rejected_lines =
      obs::MetricsRegistry::instance().counter("cellscope.io.rejected_lines");
  Mutator mutator(*seed, read_file(corpus_path));
  std::uint64_t records = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t round = 0; round < *iterations; ++round) {
    const std::string text = mutator.mutated();
    write_file(round_path, text);
    const Expected expected = reference_parse(text);
    const std::size_t batch = 1 + mutator.below(16);
    obs::QualityBoard::instance().clear();
    try {
      const std::uint64_t rejected_before = rejected_lines.value();
      const std::size_t allocated_before = test::allocated_bytes();
      std::vector<TrafficLog> got;
      {
        auto reader = open_trace_reader(round_path, TraceCodec::kCsv, batch);
        std::vector<TrafficLog> out;
        while (reader->next_batch(out)) {
          if (out.size() > batch)
            fail(round, "a batch of " + std::to_string(out.size()) +
                            " records past its bound " +
                            std::to_string(batch));
          got.insert(got.end(), out.begin(), out.end());
        }
      }
      const std::size_t allocated =
          test::allocated_bytes() - allocated_before;
      if (allocated > kAllocPerByte * text.size() + kAllocFixed)
        fail(round, "reading " + std::to_string(text.size()) +
                        " bytes allocated " + std::to_string(allocated));
      const std::uint64_t rejected_now = rejected_lines.value() - rejected_before;
      if (rejected_now != expected.rejected)
        fail(round, "rejected " + std::to_string(rejected_now) +
                        " lines, the reference " +
                        std::to_string(expected.rejected));
      if (got.size() != expected.records.size()) {
        fail(round, "kept " + std::to_string(got.size()) +
                        " records, the reference " +
                        std::to_string(expected.records.size()));
      } else {
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (!same_record(got[i], expected.records[i])) {
            fail(round, "record " + std::to_string(i) +
                            " differs from the reference (user " +
                            std::to_string(got[i].user_id) + ", tower " +
                            std::to_string(got[i].tower_id) + ")");
            break;
          }
        }
      }
      records += got.size();
      rejected += rejected_now;
    } catch (const std::exception& e) {
      fail(round, std::string("escaped exception: ") + e.what());
    }
  }
  std::filesystem::remove_all(dir);

  std::printf(
      "csv_trace_fuzz: %llu rounds (seed %llu): %llu records kept, %llu "
      "lines rejected, %d failures\n",
      static_cast<unsigned long long>(*iterations),
      static_cast<unsigned long long>(*seed),
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(rejected), failures);
  return failures == 0 ? 0 : 1;
}
