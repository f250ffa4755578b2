// Crash-safety suite (ctest -L fault): proves the snapshot durability
// contract of stream/snapshot.h — a snapshot truncated at any field
// boundary, or with any single flipped bit, is rejected with an IoError
// and leaves the target ingestor bit-identical to its pre-call state;
// failpoint-injected partial writes and rename failures never disturb
// the last complete snapshot on disk.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/failpoint.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "stream/ingestor.h"
#include "stream/snapshot.h"
#include "traffic/trace_codec.h"

namespace cellscope {
namespace {

namespace fs = std::filesystem;

/// Deterministic synthetic records: `salt` varies every byte count so
/// two ingestors seeded with different salts hold visibly different
/// state.
std::vector<TrafficLog> make_logs(std::uint32_t towers,
                                  std::uint32_t per_tower,
                                  std::uint64_t salt) {
  std::vector<TrafficLog> logs;
  logs.reserve(static_cast<std::size_t>(towers) * per_tower);
  for (std::uint32_t t = 0; t < towers; ++t) {
    for (std::uint32_t k = 0; k < per_tower; ++k) {
      TrafficLog log;
      log.user_id = salt * 1000 + k;
      log.tower_id = t;
      log.start_minute = t * 97 + k * 10;
      log.end_minute = log.start_minute + 5;
      log.bytes = 100 + t * 17 + k * 29 + salt * 7;
      log.address = "addr";
      logs.push_back(std::move(log));
    }
  }
  return logs;
}

/// Full externally observable ingestor state, for exact before/after
/// comparison.
struct Fingerprint {
  std::vector<std::pair<std::uint32_t, TowerWindow::State>> windows;
  IngestStats stats;
};

Fingerprint fingerprint(const StreamIngestor& ingestor) {
  return {ingestor.export_windows(), ingestor.stats()};
}

void expect_fingerprint_eq(const Fingerprint& got, const Fingerprint& want) {
  ASSERT_EQ(got.windows.size(), want.windows.size());
  for (std::size_t i = 0; i < want.windows.size(); ++i) {
    EXPECT_EQ(got.windows[i].first, want.windows[i].first);
    const auto& gs = got.windows[i].second;
    const auto& ws = want.windows[i].second;
    EXPECT_EQ(gs.sumsq, ws.sumsq);
    ASSERT_EQ(gs.bins.size(), ws.bins.size());
    for (std::size_t b = 0; b < ws.bins.size(); ++b) {
      EXPECT_EQ(gs.bins[b].slot, ws.bins[b].slot);
      EXPECT_EQ(gs.bins[b].cycle, ws.bins[b].cycle);
      EXPECT_EQ(gs.bins[b].bytes, ws.bins[b].bytes);
    }
  }
  EXPECT_EQ(got.stats.offered, want.stats.offered);
  EXPECT_EQ(got.stats.accepted, want.stats.accepted);
  EXPECT_EQ(got.stats.dropped, want.stats.dropped);
  EXPECT_EQ(got.stats.late, want.stats.late);
  EXPECT_EQ(got.stats.stale, want.stats.stale);
  EXPECT_EQ(got.stats.watermark_minute, want.stats.watermark_minute);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CrashSafetyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto base = fs::temp_directory_path() /
                      ("cs_fault_" + std::to_string(::getpid()));
    path_ = base.string() + ".bin";
    seed_path_ = base.string() + "_seed.bin";
    corrupt_path_ = base.string() + "_corrupt.bin";

    donor_ = std::make_unique<StreamIngestor>(
        StreamConfig{.n_shards = 3, .queue_capacity = 0});
    donor_->offer_batch(make_logs(5, 12, /*salt=*/1));
    donor_->drain(pool_);
    write_snapshot(path_, *donor_);

    // A second, different state: pre-seeds restore targets so "left
    // untouched" is distinguishable from "left empty".
    StreamIngestor seed(StreamConfig{.n_shards = 2, .queue_capacity = 0});
    seed.offer_batch(make_logs(4, 9, /*salt=*/2));
    seed.drain(pool_);
    write_snapshot(seed_path_, seed);
    seed_print_ = fingerprint(seed);
  }

  void TearDown() override {
    fp::disarm_all();
    for (const auto& p : {path_, path_ + ".tmp", seed_path_, corrupt_path_})
      fs::remove(p);
  }

  /// A fresh ingestor holding the seed state (known-good fingerprint in
  /// seed_print_).
  std::unique_ptr<StreamIngestor> seeded_target() {
    auto target = std::make_unique<StreamIngestor>(
        StreamConfig{.n_shards = 2, .queue_capacity = 0});
    read_snapshot(seed_path_, *target);
    return target;
  }

  /// Asserts the corrupted frame `bytes` is rejected with IoError and
  /// leaves a seeded target bit-identical.
  void expect_rejected_atomically(const std::string& bytes) {
    write_file(corrupt_path_, bytes);
    auto target = seeded_target();
    EXPECT_THROW(read_snapshot(corrupt_path_, *target), IoError);
    expect_fingerprint_eq(fingerprint(*target), seed_print_);
  }

  ThreadPool pool_{2};
  std::unique_ptr<StreamIngestor> donor_;
  Fingerprint seed_print_;
  std::string path_;
  std::string seed_path_;
  std::string corrupt_path_;
};

TEST_F(CrashSafetyTest, RoundTripRestoresBitIdenticalState) {
  auto target = seeded_target();
  read_snapshot(path_, *target);
  // The snapshot replaces every window it carries and the stats
  // wholesale; donor towers are a superset of seed towers here, so the
  // restored state equals the donor's exactly.
  expect_fingerprint_eq(fingerprint(*target), fingerprint(*donor_));

  // The trailer really is the payload CRC write_snapshot reported.
  const auto frame = read_file(path_);
  const auto info = write_snapshot(path_, *donor_);
  std::uint32_t trailer = 0;
  std::memcpy(&trailer, frame.data() + frame.size() - 4, sizeof(trailer));
  EXPECT_EQ(trailer, info.crc32);
  EXPECT_EQ(info.bytes, fs::file_size(path_));
}

TEST_F(CrashSafetyTest, TruncationAtEveryFieldBoundaryIsAtomic) {
  const auto frame = read_file(path_);

  // Enumerate every field boundary of the frame from the known layout:
  // header fields, the seven stats words, then each window's header and
  // bins (ascending tower id — the order export_windows feeds the
  // writer).
  std::vector<std::size_t> boundaries = {0, 4, 8, 16};
  std::size_t pos = 16;
  for (int i = 0; i < 7; ++i) boundaries.push_back(pos += 8);
  for (const auto& [id, state] : donor_->export_windows()) {
    (void)id;
    boundaries.push_back(pos += 4);   // tower id
    boundaries.push_back(pos += 8);   // bin count
    boundaries.push_back(pos += 8);   // sumsq
    for (std::size_t b = 0; b < state.bins.size(); ++b) {
      boundaries.push_back(pos += 4);  // slot
      boundaries.push_back(pos += 4);  // cycle
      boundaries.push_back(pos += 8);  // bytes
    }
  }
  ASSERT_EQ(pos + 4, frame.size());  // layout walk must land on the CRC
  boundaries.push_back(frame.size() - 2);  // mid-trailer for good measure

  std::size_t injected = 0;
  for (const auto cut : boundaries) {
    ASSERT_LT(cut, frame.size());
    expect_rejected_atomically(frame.substr(0, cut));
    ++injected;
  }
  EXPECT_GE(injected, 50u);
}

TEST_F(CrashSafetyTest, SingleBitFlipsAnywhereAreRejected) {
  const auto frame = read_file(path_);
  ASSERT_GT(frame.size(), 80u);

  std::vector<std::size_t> positions;
  for (std::size_t p = 0; p < 20; ++p) positions.push_back(p);  // header
  const std::size_t stride = std::max<std::size_t>(1, frame.size() / 48);
  for (std::size_t p = 20; p < frame.size(); p += stride)
    positions.push_back(p);  // payload sample
  for (std::size_t p = frame.size() - 4; p < frame.size(); ++p)
    positions.push_back(p);  // CRC trailer

  std::size_t injected = 0;
  for (const auto p : positions) {
    std::string corrupt = frame;
    corrupt[p] = static_cast<char>(corrupt[p] ^ (1 << (p % 8)));
    expect_rejected_atomically(corrupt);
    ++injected;
  }
  EXPECT_GE(injected, 50u);
}

TEST_F(CrashSafetyTest, FailedRestoreLeavesStatsAndWindowsUntouched) {
  // Regression for the pre-transactional bug: import_window /
  // restore_stats used to apply incrementally, so an IoError mid-file
  // half-restored the target. Seed a target through the real offer/drain
  // path, then feed it a frame cut inside the third window.
  StreamIngestor target(StreamConfig{.n_shards = 3, .queue_capacity = 0});
  target.offer_batch(make_logs(6, 7, /*salt=*/9));
  target.drain(pool_);
  const auto before = fingerprint(target);

  const auto frame = read_file(path_);
  write_file(corrupt_path_, frame.substr(0, frame.size() * 2 / 3));
  EXPECT_THROW(read_snapshot(corrupt_path_, target), IoError);

  expect_fingerprint_eq(fingerprint(target), before);
  const auto stats = target.stats();
  EXPECT_EQ(stats.offered, before.stats.offered);
  EXPECT_EQ(stats.accepted, before.stats.accepted);
}

TEST_F(CrashSafetyTest, UnsupportedVersionIsTypedIoErrorNamingBoth) {
  auto frame = read_file(path_);
  const std::uint32_t newer = kSnapshotVersion + 1;
  std::memcpy(frame.data() + 4, &newer, sizeof(newer));
  write_file(corrupt_path_, frame);

  const auto& failures = obs::MetricsRegistry::instance().counter(
      "cellscope.stream.snapshot_restore_failures");
  const auto failures_before = failures.value();

  auto target = seeded_target();
  try {
    read_snapshot(corrupt_path_, *target);
    FAIL() << "version " << newer << " should have been rejected";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(newer)), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kSnapshotVersion)), std::string::npos)
        << what;
  }
  expect_fingerprint_eq(fingerprint(*target), seed_print_);
  EXPECT_EQ(failures.value(), failures_before + 1);

  // Older (pre-framing) version number: same typed rejection.
  const std::uint32_t older = 1;
  std::memcpy(frame.data() + 4, &older, sizeof(older));
  expect_rejected_atomically(frame);
}

TEST_F(CrashSafetyTest, PartialWriteFailpointPreservesLastSnapshot) {
  const auto good = read_file(path_);
  const auto& failures = obs::MetricsRegistry::instance().counter(
      "cellscope.stream.snapshot_write_failures");
  const auto failures_before = failures.value();

  StreamIngestor other(StreamConfig{.n_shards = 1, .queue_capacity = 0});
  other.offer_batch(make_logs(3, 5, /*salt=*/4));
  other.drain(pool_);

  fp::arm("snapshot.write.partial", 1);
  EXPECT_THROW(write_snapshot(path_, other), IoError);
  EXPECT_EQ(fp::fire_count("snapshot.write.partial"), 1u);
  EXPECT_EQ(failures.value(), failures_before + 1);

  // The torn attempt only ever touched <path>.tmp; the last complete
  // snapshot is byte-identical and still restores.
  EXPECT_EQ(read_file(path_), good);
  auto target = seeded_target();
  EXPECT_NO_THROW(read_snapshot(path_, *target));
  expect_fingerprint_eq(fingerprint(*target), fingerprint(*donor_));

  // Charge consumed: the retry goes through.
  EXPECT_NO_THROW(write_snapshot(path_, other));
}

TEST_F(CrashSafetyTest, RenameFailpointPreservesLastSnapshotViaSpec) {
  const auto good = read_file(path_);
  StreamIngestor other(StreamConfig{.n_shards = 1, .queue_capacity = 0});
  other.offer_batch(make_logs(2, 4, /*salt=*/6));
  other.drain(pool_);

  // Armed through the CELLSCOPE_FAILPOINTS grammar.
  fp::arm_from_spec("snapshot.rename.fail=1");
  EXPECT_THROW(write_snapshot(path_, other), IoError);
  EXPECT_EQ(read_file(path_), good);

  // The fully written, fsynced .tmp is sitting next to it — rename was
  // the only step that "failed" — and the retry succeeds. Restore into a
  // fresh ingestor so the comparison is exactly `other`'s state.
  EXPECT_NO_THROW(write_snapshot(path_, other));
  StreamIngestor target(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  read_snapshot(path_, target);
  expect_fingerprint_eq(fingerprint(target), fingerprint(other));
}

TEST_F(CrashSafetyTest, TraceIoFailpointsInjectTypedIoErrors) {
  fp::arm("trace.write.fail", 1);
  EXPECT_THROW(
      write_trace(corrupt_path_, make_logs(1, 2, 5), TraceCodec::kCsv),
      IoError);

  // The charge is consumed.
  write_trace(corrupt_path_, make_logs(1, 2, 5), TraceCodec::kCsv);
  fp::arm("trace.read.fail", 1);
  EXPECT_THROW(read_trace(corrupt_path_, TraceCodec::kCsv), IoError);
  EXPECT_EQ(read_trace(corrupt_path_, TraceCodec::kCsv).size(), 2u);
}

}  // namespace
}  // namespace cellscope
