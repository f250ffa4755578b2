#include "stream/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "city/deployment.h"
#include "common/checksum.h"
#include "common/error.h"
#include "common/rng.h"
#include "mapred/thread_pool.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "traffic/trace_generator.h"

namespace cellscope {
namespace {

class StreamSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("cs_snapshot_" + std::to_string(::getpid()) + ".bin"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Fills towers_ and logs_ with a two-day 8-tower trace (~1.1 M
  /// records); only the tests that replay it pay for generating it.
  void generate_trace_fixture() {
    const auto city = CityModel::create_default();
    DeploymentOptions deployment;
    deployment.n_towers = 8;
    towers_ = deploy_towers(city, deployment);
    const auto intensity = IntensityModel::create(towers_, IntensityOptions{});
    TraceOptions options;
    options.day_begin = 0;
    options.day_end = 2;
    options.duplicate_prob = 0.0;
    options.conflict_prob = 0.0;
    logs_ = generate_trace(towers_, intensity, options).logs;
  }

  std::vector<Tower> towers_;
  std::vector<TrafficLog> logs_;
  std::string path_;
};

TEST_F(StreamSnapshotTest, ResumeFromCheckpointIsBitIdentical) {
  generate_trace_fixture();
  // generate_trace emits tower by tower; shuffled, each half spans every
  // tower and both days, so the checkpoint falls mid-stream for each.
  Rng(4242).shuffle(logs_);
  ThreadPool pool(2);
  const std::size_t half = logs_.size() / 2;
  const std::span<const TrafficLog> first(logs_.data(), half);
  const std::span<const TrafficLog> second(logs_.data() + half,
                                           logs_.size() - half);

  // Uninterrupted reference run.
  StreamIngestor reference(StreamConfig{.n_shards = 3, .queue_capacity = 0});
  reference.register_towers(towers_);
  reference.offer_batch(first);
  reference.offer_batch(second);
  reference.drain(pool);

  // Checkpointed run: first half, snapshot, restore into an ingestor
  // with a DIFFERENT shard count, then the second half.
  StreamIngestor before(StreamConfig{.n_shards = 3, .queue_capacity = 0});
  before.register_towers(towers_);
  before.offer_batch(first);
  before.drain(pool);
  const auto info = write_snapshot(path_, before);
  EXPECT_EQ(info.towers, towers_.size());
  EXPECT_GT(info.bins, 0u);
  EXPECT_EQ(info.bytes, std::filesystem::file_size(path_));

  StreamIngestor after(StreamConfig{.n_shards = 5, .queue_capacity = 0});
  read_snapshot(path_, after);
  after.offer_batch(second);
  after.drain(pool);

  ASSERT_EQ(after.tower_ids(), reference.tower_ids());
  for (const auto id : reference.tower_ids()) {
    const auto want = reference.window_copy(id);
    const auto got = after.window_copy(id);
    EXPECT_EQ(got.raw_vector(), want.raw_vector());
    EXPECT_EQ(got.mean(), want.mean());
    EXPECT_EQ(got.variance(), want.variance());
    EXPECT_EQ(got.folded_week(), want.folded_week());
  }
  const auto want_stats = reference.stats();
  const auto got_stats = after.stats();
  EXPECT_EQ(got_stats.offered, want_stats.offered);
  EXPECT_EQ(got_stats.accepted, want_stats.accepted);
  EXPECT_EQ(got_stats.watermark_minute, want_stats.watermark_minute);
}

TEST_F(StreamSnapshotTest, RefusesToSnapshotWithPendingRecords) {
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  ingestor.offer(TrafficLog{.user_id = 1,
                            .tower_id = 0,
                            .start_minute = 10,
                            .end_minute = 15,
                            .bytes = 4096,
                            .address = {}});
  EXPECT_THROW(write_snapshot(path_, ingestor), Error);
  // After draining it succeeds.
  ThreadPool pool(1);
  ingestor.drain(pool);
  EXPECT_NO_THROW(write_snapshot(path_, ingestor));
}

TEST_F(StreamSnapshotTest, RejectsBadMagicAndTruncation) {
  generate_trace_fixture();
  ThreadPool pool(1);
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  ingestor.offer_batch(logs_);
  ingestor.drain(pool);
  write_snapshot(path_, ingestor);

  // Flip the magic.
  {
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    file.put('X');
  }
  StreamIngestor restore_a(StreamConfig{});
  EXPECT_THROW(read_snapshot(path_, restore_a), Error);

  // Rewrite, then truncate the tail.
  write_snapshot(path_, ingestor);
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full / 2);
  StreamIngestor restore_b(StreamConfig{});
  EXPECT_THROW(read_snapshot(path_, restore_b), IoError);

  StreamIngestor restore_c(StreamConfig{});
  EXPECT_THROW(read_snapshot("/nonexistent/cs.bin", restore_c), IoError);
}

TEST_F(StreamSnapshotTest, ReplayHarnessResumeMatchesUninterruptedReplay) {
  generate_trace_fixture();
  ThreadPool pool(2);
  ReplayOptions options;
  options.seed = 4242;
  options.skew_window = 257;
  options.late_fraction = 0.03;
  options.batch_size = 4096;
  const auto arrival = perturb_arrival_order(logs_, options);

  StreamIngestor straight(StreamConfig{.n_shards = 4, .queue_capacity = 0});
  straight.register_towers(towers_);
  replay_trace(arrival, straight, pool, options);

  const std::size_t half = arrival.size() / 2;
  StreamIngestor part_one(StreamConfig{.n_shards = 4, .queue_capacity = 0});
  part_one.register_towers(towers_);
  replay_trace({arrival.begin(), arrival.begin() + half}, part_one, pool,
               options);
  write_snapshot(path_, part_one);

  StreamIngestor part_two(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  read_snapshot(path_, part_two);
  replay_trace({arrival.begin() + half, arrival.end()}, part_two, pool,
               options);

  const auto want = straight.folded_vectors(&pool);
  const auto got = part_two.folded_vectors(&pool);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second);
  }
}

TEST_F(StreamSnapshotTest, FrameBytesArePinned) {
  // The v2 layout byte for byte: a seeded 30-tower ingestor must keep
  // writing exactly this file.
  const auto city = CityModel::create_default();
  DeploymentOptions deployment;
  deployment.n_towers = 30;
  const auto towers = deploy_towers(city, deployment);
  const auto intensity = IntensityModel::create(towers, IntensityOptions{});
  TraceOptions options;
  options.day_begin = 0;
  options.day_end = 3;
  options.mean_session_bytes = 2.0e7;  // ~25 k records keep the test fast
  const auto logs = generate_trace(towers, intensity, options).logs;

  ThreadPool pool(2);
  StreamIngestor ingestor(StreamConfig{.n_shards = 3, .queue_capacity = 0});
  ingestor.register_towers(towers);
  ingestor.offer_batch(logs);
  ingestor.drain(pool);
  const auto info = write_snapshot(path_, ingestor);

  std::ifstream in(path_, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  constexpr std::size_t kHeader = 16;
  constexpr std::size_t kTrailer = 4;
  ASSERT_GE(file.size(), kHeader + kTrailer);
  std::uint64_t payload_len = 0;
  std::memcpy(&payload_len, file.data() + 8, sizeof(payload_len));
  EXPECT_EQ(file.size(), kHeader + payload_len + kTrailer);
  std::uint32_t trailer = 0;
  std::memcpy(&trailer, file.data() + file.size() - kTrailer, sizeof(trailer));
  EXPECT_EQ(trailer, info.crc32);
  EXPECT_EQ(trailer, crc32(file.data() + kHeader, payload_len));

  EXPECT_EQ(file.size(), 125924u);
  EXPECT_EQ(crc32(file), 0x2D3DB13Du);
}

}  // namespace
}  // namespace cellscope
