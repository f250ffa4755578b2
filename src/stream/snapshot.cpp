#include "stream/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/time_grid.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "stream/ingestor.h"

namespace cellscope {

namespace {

// Fixed-width little-endian scalar I/O over in-memory buffers. The
// project targets little-endian hosts (x86-64 / arm64); a byte-swapping
// port would slot in here.

template <typename T>
void put(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Bounds-checked sequential decoder over a byte span. Every short read
/// is a typed IoError naming the field — by the time the payload cursor
/// runs, length and CRC already validated, so hitting one of these means
/// the writer and reader disagree about the layout.
class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : data_(data), size_(size) {}

  template <typename T>
  T get(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ - offset_ < sizeof(T))
      throw IoError(std::string("snapshot truncated while reading ") + what);
    T value{};
    std::memcpy(&value, data_ + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  std::size_t remaining() const { return size_ - offset_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

/// Fully-decoded snapshot contents, staged so the ingestor is only
/// touched once the whole file has validated (all-or-nothing restore).
struct StagedSnapshot {
  IngestStats stats;
  std::vector<std::pair<std::uint32_t, TowerWindow::State>> windows;
  std::uint64_t bins_total = 0;
};

// Frame geometry: u32 magic + u32 version + u64 payload_len, then the
// payload, then the u32 CRC trailer.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kTrailerBytes = 4;

// Payload geometry: seven u64 header fields, then per window a u32 id,
// u64 bin count and f64 sumsq, then per bin u32 slot, u32 cycle, u64
// bytes.
constexpr std::size_t kPayloadHeaderBytes = 7 * 8;
constexpr std::size_t kWindowHeaderBytes = 4 + 8 + 8;
constexpr std::size_t kBinBytes = 4 + 4 + 8;

/// Exact serialized payload length, so the frame is sized once.
std::size_t payload_length(const std::vector<std::pair<
                               std::uint32_t, TowerWindow::State>>& windows) {
  std::size_t len = kPayloadHeaderBytes;
  for (const auto& window : windows)
    len += kWindowHeaderBytes + kBinBytes * window.second.bins.size();
  return len;
}

/// Appends the payload to `out`.
void serialize_payload(std::string& out, const IngestStats& stats,
                       const std::vector<std::pair<
                           std::uint32_t, TowerWindow::State>>& windows,
                       SnapshotInfo& info) {
  put<std::uint64_t>(out, stats.watermark_minute);
  put<std::uint64_t>(out, stats.offered);
  put<std::uint64_t>(out, stats.accepted);
  put<std::uint64_t>(out, stats.dropped);
  put<std::uint64_t>(out, stats.late);
  put<std::uint64_t>(out, stats.stale);
  put<std::uint64_t>(out, windows.size());
  info.towers = windows.size();
  for (const auto& [id, state] : windows) {
    put<std::uint32_t>(out, id);
    put<std::uint64_t>(out, state.bins.size());
    put<double>(out, state.sumsq);
    for (const auto& bin : state.bins) {
      put<std::uint32_t>(out, bin.slot);
      put<std::uint32_t>(out, bin.cycle);
      put<std::uint64_t>(out, bin.bytes);
    }
    info.bins += state.bins.size();
  }
}

StagedSnapshot decode_payload(std::string_view payload) {
  Cursor cursor(payload.data(), payload.size());
  StagedSnapshot staged;
  staged.stats.watermark_minute = cursor.get<std::uint64_t>("watermark");
  staged.stats.offered = cursor.get<std::uint64_t>("offered");
  staged.stats.accepted = cursor.get<std::uint64_t>("accepted");
  staged.stats.dropped = cursor.get<std::uint64_t>("dropped");
  staged.stats.late = cursor.get<std::uint64_t>("late");
  staged.stats.stale = cursor.get<std::uint64_t>("stale");
  const auto n_windows = cursor.get<std::uint64_t>("window count");

  // Each window needs at least its 20-byte header; a count beyond that
  // bound is corruption — reject before reserving memory for it.
  if (n_windows > cursor.remaining() / kWindowHeaderBytes)
    throw IoError("snapshot window count exceeds payload size: " +
                  std::to_string(n_windows));
  staged.windows.reserve(static_cast<std::size_t>(n_windows));

  for (std::uint64_t w = 0; w < n_windows; ++w) {
    const auto id = cursor.get<std::uint32_t>("tower id");
    const auto n_bins = cursor.get<std::uint64_t>("bin count");
    if (n_bins > TimeGrid::kSlots)
      throw IoError("snapshot window holds more bins than the grid: " +
                    std::to_string(n_bins));
    TowerWindow::State state;
    state.sumsq = cursor.get<double>("sumsq");
    state.bins.reserve(static_cast<std::size_t>(n_bins));
    for (std::uint64_t b = 0; b < n_bins; ++b) {
      TowerWindow::ObservedBin bin;
      bin.slot = cursor.get<std::uint32_t>("bin slot");
      bin.cycle = cursor.get<std::uint32_t>("bin cycle");
      bin.bytes = cursor.get<std::uint64_t>("bin bytes");
      // Writers emit bins in strictly ascending slot order; enforcing it
      // here guarantees in-range, duplicate-free slots, so the later
      // apply step (TowerWindow::from_state) can never throw mid-way.
      if (bin.slot >= TimeGrid::kSlots)
        throw IoError("snapshot bin slot out of range: " +
                      std::to_string(bin.slot));
      if (!state.bins.empty() && bin.slot <= state.bins.back().slot)
        throw IoError("snapshot bin slots not strictly ascending");
      state.bins.push_back(bin);
    }
    staged.windows.emplace_back(id, std::move(state));
    staged.bins_total += n_bins;
  }
  if (cursor.remaining() != 0)
    throw IoError("snapshot payload has " +
                  std::to_string(cursor.remaining()) +
                  " trailing bytes past the last window");
  return staged;
}

/// Closes `span` and opens the next step of write_snapshot as a
/// debug-level child span, stream.snapshot.<name>, so a trace splits
/// stream.snapshot_write_ms into export, encode, checksum, write and
/// fsync.
void next_step(std::optional<obs::StageSpan>& span, std::string_view name) {
  span.reset();
  span.emplace("stream.snapshot." + std::string(name), "stream",
               obs::LogLevel::kDebug);
}

/// Writes the whole frame to <path>.tmp with an fsync before the atomic
/// rename — the classic ordered-durability dance, so a crash at any
/// point leaves either the old or the new complete file at `path`.
void write_frame_durably(const std::string& path, const std::string& frame) {
  const std::string tmp = path + ".tmp";
  std::optional<obs::StageSpan> span;
  next_step(span, "write");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    throw IoError("cannot open snapshot for writing: " + tmp + " (" +
                  std::strerror(errno) + ")");

  // A crashed/failed attempt leaves the torn .tmp behind (like a real
  // crash would); the next attempt truncates it, and readers only ever
  // see `path`.
  std::size_t limit = frame.size();
  const bool partial = CS_FAILPOINT("snapshot.write.partial");
  if (partial) limit = frame.size() / 2;

  std::size_t written = 0;
  while (written < limit) {
    const ssize_t n = ::write(fd, frame.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string detail = std::strerror(errno);
      ::close(fd);
      throw IoError("failed writing snapshot: " + tmp + " (" + detail + ")");
    }
    written += static_cast<std::size_t>(n);
  }
  if (partial) {
    ::close(fd);
    throw IoError("failpoint snapshot.write.partial: short write to " + tmp +
                  " (" + std::to_string(limit) + " of " +
                  std::to_string(frame.size()) + " bytes)");
  }

  next_step(span, "fsync");
  if (::fsync(fd) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    throw IoError("failed fsyncing snapshot: " + tmp + " (" + detail + ")");
  }
  if (::close(fd) != 0)
    throw IoError("failed closing snapshot: " + tmp + " (" +
                  std::strerror(errno) + ")");

  if (CS_FAILPOINT("snapshot.rename.fail"))
    throw IoError("failpoint snapshot.rename.fail: refusing to rename " +
                  tmp + " into place");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    throw IoError("failed renaming snapshot into place: " + path + " (" +
                  ec.message() + ")");

  // Persist the rename itself: fsync the containing directory. Best
  // effort — some filesystems refuse directory fsync; the data fsync
  // above already bounds the damage to "old complete file".
  const auto dir = std::filesystem::path(path).parent_path();
  const std::string dir_str = dir.empty() ? "." : dir.string();
  const int dir_fd = ::open(dir_str.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

obs::Counter& write_failures() {
  return obs::MetricsRegistry::instance().counter(
      "cellscope.stream.snapshot_write_failures");
}

obs::Counter& restore_failures() {
  return obs::MetricsRegistry::instance().counter(
      "cellscope.stream.snapshot_restore_failures");
}

}  // namespace

SnapshotInfo write_snapshot(const std::string& path,
                            const StreamIngestor& ingestor) {
  CS_CHECK_MSG(ingestor.pending() == 0,
               "drain the ingestor before snapshotting — pending records "
               "would be lost");
  std::optional<obs::StageSpan> span;
  next_step(span, "export");
  const auto windows = ingestor.export_windows();
  const auto stats = ingestor.stats();

  // One buffer holds the whole frame: header, payload serialized in
  // place, then the CRC of the payload span as the trailer.
  SnapshotInfo info;
  next_step(span, "encode");
  const std::size_t payload_len = payload_length(windows);
  std::string frame;
  frame.reserve(kHeaderBytes + payload_len + kTrailerBytes);
  put<std::uint32_t>(frame, kSnapshotMagic);
  put<std::uint32_t>(frame, kSnapshotVersion);
  put<std::uint64_t>(frame, static_cast<std::uint64_t>(payload_len));
  serialize_payload(frame, stats, windows, info);
  CS_CHECK(frame.size() == kHeaderBytes + payload_len);
  next_step(span, "checksum");
  info.crc32 = crc32(frame.data() + kHeaderBytes, payload_len);
  put<std::uint32_t>(frame, info.crc32);
  span.reset();

  try {
    write_frame_durably(path, frame);
  } catch (const Error& e) {
    write_failures().add(1);
    obs::log_warn("stream.snapshot_write_failed",
                  {{"path", path}, {"error", e.what()}});
    throw;
  }

  std::error_code ec;
  const auto on_disk = std::filesystem::file_size(path, ec);
  if (ec) {
    // The rename succeeded, so the snapshot is in place — only the size
    // probe failed. Report 0 rather than garbage.
    info.bytes = 0;
    obs::log_warn("stream.snapshot_size_unknown",
                  {{"path", path}, {"error", ec.message()}});
  } else {
    info.bytes = on_disk;
  }

  obs::MetricsRegistry::instance()
      .counter("cellscope.stream.snapshots_written")
      .add(1);
  obs::log_info("stream.snapshot_written", {{"path", path},
                                            {"towers", info.towers},
                                            {"bins", info.bins},
                                            {"bytes", info.bytes},
                                            {"crc32", info.crc32}});
  return info;
}

namespace {

/// Reads the whole file at `path` into one buffer sized from the opened
/// file's length. Throws IoError if it cannot be opened or read in full.
std::string read_frame(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("cannot open snapshot: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    throw IoError("failed reading snapshot: " + path + " (" + detail + ")");
  }
  std::string frame(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  while (got < frame.size()) {
    const ssize_t n = ::read(fd, frame.data() + got, frame.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const std::string detail =
          n < 0 ? std::strerror(errno)
                : "short read: " + std::to_string(got) + " of " +
                      std::to_string(frame.size()) + " bytes";
      ::close(fd);
      throw IoError("failed reading snapshot: " + path + " (" + detail + ")");
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return frame;
}

/// Loads and fully validates the frame at `path`, returning the staged
/// contents. Touches no ingestor state; throws IoError on any defect.
StagedSnapshot load_and_validate(const std::string& path) {
  const std::string frame = read_frame(path);

  if (frame.size() < kHeaderBytes + kTrailerBytes)
    throw IoError("snapshot smaller than its frame header: " + path + " (" +
                  std::to_string(frame.size()) + " bytes)");

  Cursor header(frame.data(), kHeaderBytes);
  const auto magic = header.get<std::uint32_t>("magic");
  if (magic != kSnapshotMagic)
    throw IoError("not a cellscope stream snapshot: " + path);
  const auto version = header.get<std::uint32_t>("version");
  if (version != kSnapshotVersion) {
    obs::log_warn("stream.snapshot_version_mismatch",
                  {{"path", path},
                   {"found", version},
                   {"supported", kSnapshotVersion}});
    throw IoError("unsupported snapshot version " + std::to_string(version) +
                  " (this build reads version " +
                  std::to_string(kSnapshotVersion) + "): " + path);
  }
  const auto payload_len = header.get<std::uint64_t>("payload length");
  if (payload_len != frame.size() - kHeaderBytes - kTrailerBytes)
    throw IoError("snapshot frame length mismatch (torn write?): " + path +
                  " declares " + std::to_string(payload_len) +
                  " payload bytes, file holds " +
                  std::to_string(frame.size() - kHeaderBytes - kTrailerBytes));

  const std::string_view payload(frame.data() + kHeaderBytes,
                                 static_cast<std::size_t>(payload_len));
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, frame.data() + frame.size() - kTrailerBytes,
              sizeof(stored_crc));
  const std::uint32_t computed = crc32(payload.data(), payload.size());
  if (computed != stored_crc)
    throw IoError("snapshot checksum mismatch (corrupt payload): " + path);

  return decode_payload(payload);
}

}  // namespace

void read_snapshot(const std::string& path, StreamIngestor& ingestor) {
  StagedSnapshot staged;
  try {
    staged = load_and_validate(path);
  } catch (const Error& e) {
    restore_failures().add(1);
    obs::log_warn("stream.snapshot_restore_failed",
                  {{"path", path}, {"error", e.what()}});
    throw;
  }

  // Apply phase: everything below is validated (slots strictly ascending
  // and in range), so no step can throw — the ingestor either gets the
  // whole snapshot or, on any failure above, was never touched.
  for (const auto& [id, state] : staged.windows)
    ingestor.import_window(id, state);
  ingestor.restore_stats(staged.stats);

  obs::MetricsRegistry::instance()
      .counter("cellscope.stream.snapshots_restored")
      .add(1);
  obs::log_info("stream.snapshot_restored",
                {{"path", path},
                 {"towers", staged.windows.size()},
                 {"bins", staged.bins_total},
                 {"watermark_minute", staged.stats.watermark_minute}});
}

}  // namespace cellscope
