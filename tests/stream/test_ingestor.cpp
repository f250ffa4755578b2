#include "stream/ingestor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"

namespace cellscope {
namespace {

TrafficLog make_log(std::uint32_t tower, std::uint64_t start,
                    std::uint64_t bytes) {
  TrafficLog log;
  log.user_id = 1;
  log.tower_id = tower;
  log.start_minute = static_cast<std::uint32_t>(start);
  log.end_minute = static_cast<std::uint32_t>(start + 5);
  log.bytes = bytes;
  return log;
}

TEST(StreamIngestor, RoutesRecordsToWindowsOnDrain) {
  StreamIngestor ingestor(StreamConfig{.n_shards = 3, .queue_capacity = 0});
  ThreadPool pool(2);
  EXPECT_EQ(ingestor.offer(make_log(7, 25, 100)), OfferResult::kAccepted);
  EXPECT_EQ(ingestor.offer(make_log(7, 27, 50)), OfferResult::kAccepted);
  EXPECT_EQ(ingestor.offer(make_log(12, 0, 9)), OfferResult::kAccepted);
  EXPECT_EQ(ingestor.pending(), 3u);

  ingestor.drain(pool);
  EXPECT_EQ(ingestor.pending(), 0u);
  EXPECT_EQ(ingestor.window_copy(7).raw_vector()[2], 150.0);
  EXPECT_EQ(ingestor.window_copy(12).raw_vector()[0], 9.0);

  const auto stats = ingestor.stats();
  EXPECT_EQ(stats.offered, 3u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(ingestor.tower_ids(), (std::vector<std::uint32_t>{7, 12}));
}

TEST(StreamIngestor, OfferBatchMatchesRecordByRecordOffers) {
  std::vector<TrafficLog> logs;
  for (std::uint32_t i = 0; i < 500; ++i)
    logs.push_back(make_log(i % 11, (i * 37) % 4000, 10 + i));

  StreamIngestor one(StreamConfig{.n_shards = 4, .queue_capacity = 0});
  StreamIngestor other(StreamConfig{.n_shards = 4, .queue_capacity = 0});
  ThreadPool pool(2);
  for (const auto& log : logs) one.offer(log);
  EXPECT_EQ(other.offer_batch(logs), logs.size());
  one.drain(pool);
  other.drain(pool);

  ASSERT_EQ(one.tower_ids(), other.tower_ids());
  for (const auto id : one.tower_ids())
    EXPECT_EQ(one.window_copy(id).raw_vector(),
              other.window_copy(id).raw_vector());
}

TEST(StreamIngestor, FullShardQueueDropsAndCounts) {
  StreamIngestor ingestor(StreamConfig{.n_shards = 1, .queue_capacity = 2});
  EXPECT_EQ(ingestor.offer(make_log(0, 0, 1)), OfferResult::kAccepted);
  EXPECT_EQ(ingestor.offer(make_log(0, 10, 1)), OfferResult::kAccepted);
  EXPECT_EQ(ingestor.offer(make_log(0, 20, 1)), OfferResult::kDropped);
  EXPECT_EQ(ingestor.offer(make_log(0, 30, 1)), OfferResult::kDropped);

  const auto stats = ingestor.stats();
  EXPECT_EQ(stats.offered, 4u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.dropped, 2u);

  // Draining frees capacity again.
  ThreadPool pool(1);
  ingestor.drain(pool);
  EXPECT_EQ(ingestor.offer(make_log(0, 40, 1)), OfferResult::kAccepted);
}

TEST(StreamIngestor, WatermarkAndLatenessAccounting) {
  StreamConfig config;
  config.n_shards = 2;
  config.queue_capacity = 0;
  StreamIngestor ingestor(config);

  TrafficLog head = make_log(1, 995, 10);
  head.end_minute = 1000;
  ingestor.offer(head);
  EXPECT_EQ(ingestor.stats().watermark_minute, 1000u);
  EXPECT_EQ(ingestor.stats().late, 0u);

  // Within the lateness bound: fine.
  ingestor.offer(make_log(2, 900, 5));
  EXPECT_EQ(ingestor.stats().late, 0u);
  // Beyond it: counted late but still accepted (and applied on drain).
  ingestor.offer(make_log(2, 500, 7));
  const auto stats = ingestor.stats();
  EXPECT_EQ(stats.late, 1u);
  EXPECT_EQ(stats.accepted, 3u);

  ThreadPool pool(1);
  ingestor.drain(pool);
  EXPECT_EQ(ingestor.window_copy(2).raw_vector()[50], 7.0);
}

TEST(StreamIngestor, RegisteredTowersAppearAsColdWindows) {
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  std::vector<Tower> towers(3);
  towers[0].id = 4;
  towers[1].id = 9;
  towers[2].id = 2;
  ingestor.register_towers(towers);

  EXPECT_EQ(ingestor.tower_ids(), (std::vector<std::uint32_t>{2, 4, 9}));
  const auto folded = ingestor.folded_vectors();
  ASSERT_EQ(folded.size(), 3u);
  for (const auto& [id, vec] : folded) {
    ASSERT_EQ(vec.size(), TimeGrid::kSlotsPerWeek);
    for (const double v : vec) EXPECT_EQ(v, 0.0);  // silent tower, z=0
  }
}

DecodedColumns columns_of(const std::vector<TrafficLog>& logs) {
  DecodedColumns cols;
  for (const auto& log : logs) {
    cols.tower.push_back(log.tower_id);
    cols.start.push_back(log.start_minute);
    cols.end.push_back(log.end_minute);
    cols.bytes.push_back(log.bytes);
  }
  return cols;
}

TEST(StreamIngestor, EveryWindowCreationPathSharesOneStore) {
  // Towers 0..63, each created by one path picked by id % 4: 0 registered
  // (unsorted), 1 imported from a checkpoint state, 2 offered + drained,
  // 3 bulk-ingested. The paths interleave in two rounds, so every shard
  // holds windows of all four origins in mixed creation order, and every
  // tower then takes more records through both record paths.
  constexpr std::uint32_t kTowers = 64;
  const auto records_of = [](std::uint32_t tower, std::uint32_t salt) {
    std::vector<TrafficLog> logs;
    for (std::uint32_t j = 0; j < 4; ++j)
      logs.push_back(make_log(tower, (tower * 37 + j * 1301 + salt) % 40000,
                              tower * 10 + j + salt));
    return logs;
  };
  const auto ids_in = [&](std::uint32_t path, bool second_half) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t t = kTowers; t-- > 0;)  // descending: unsorted input
      if (t % 4 == path && (t >= kTowers / 2) == second_half) ids.push_back(t);
    std::rotate(ids.begin(), ids.begin() + ids.size() / 3, ids.end());
    return ids;
  };

  for (const std::size_t n_shards : {1u, 3u, 4u}) {
    SCOPED_TRACE(n_shards);
    StreamIngestor mixed(
        StreamConfig{.n_shards = n_shards, .queue_capacity = 0});
    StreamIngestor reference(StreamConfig{.n_shards = 1, .queue_capacity = 0});
    ThreadPool pool(2);
    std::vector<TrafficLog> all;  // every record, for the reference

    const auto do_register = [&](bool half) {
      std::vector<Tower> towers;
      for (const auto id : ids_in(0, half)) towers.emplace_back().id = id;
      mixed.register_towers(towers);
    };
    const auto do_import = [&](bool half) {
      for (const auto id : ids_in(1, half)) {
        TowerWindow window;
        for (const auto& log : records_of(id, 1)) {
          window.add(log.start_minute, log.bytes);
          all.push_back(log);
        }
        mixed.import_window(id, window.state());
      }
    };
    const auto do_offer = [&](bool half) {
      std::vector<TrafficLog> logs;
      for (const auto id : ids_in(2, half))
        for (const auto& log : records_of(id, 2)) logs.push_back(log);
      mixed.offer_batch(logs);
      mixed.drain(pool);
      all.insert(all.end(), logs.begin(), logs.end());
    };
    const auto do_ingest = [&](bool half) {
      std::vector<TrafficLog> logs;
      for (const auto id : ids_in(3, half))
        for (const auto& log : records_of(id, 3)) logs.push_back(log);
      mixed.ingest_columns(columns_of(logs));
      all.insert(all.end(), logs.begin(), logs.end());
    };
    do_ingest(false);
    do_register(false);
    do_offer(false);
    do_import(false);
    do_import(true);
    do_offer(true);
    do_register(true);
    do_ingest(true);
    // More records for every tower, half through each record path.
    std::vector<TrafficLog> offered, ingested;
    for (std::uint32_t t = 0; t < kTowers; ++t)
      for (const auto& log : records_of(t, 5))
        (t % 2 == 0 ? offered : ingested).push_back(log);
    mixed.offer_batch(offered);
    mixed.drain(pool);
    mixed.ingest_columns(columns_of(ingested));
    all.insert(all.end(), offered.begin(), offered.end());
    all.insert(all.end(), ingested.begin(), ingested.end());

    reference.offer_batch(all);
    reference.drain(pool);

    std::vector<std::uint32_t> expected(kTowers);
    for (std::uint32_t t = 0; t < kTowers; ++t) expected[t] = t;
    ASSERT_EQ(mixed.tower_ids(), expected);
    const auto exported = mixed.export_windows();
    ASSERT_EQ(exported.size(), expected.size());
    std::size_t resident = 0;
    for (const auto& shard : mixed.shard_stats()) resident += shard.towers;
    EXPECT_EQ(resident, expected.size());
    for (std::uint32_t t = 0; t < kTowers; ++t) {
      EXPECT_EQ(exported[t].first, t);
      const TowerWindow copy = mixed.window_copy(t);
      const TowerWindowStats stats = mixed.window_stats(t);
      EXPECT_EQ(stats.observed_slots, copy.observed_slots()) << t;
      EXPECT_EQ(stats.total_bytes, copy.total_bytes()) << t;
      EXPECT_EQ(stats.mean, copy.mean()) << t;
      EXPECT_EQ(stats.variance, copy.variance()) << t;
      EXPECT_EQ(stats.latest_minute, copy.latest_minute()) << t;
      EXPECT_EQ(stats.latest_cycle, copy.latest_cycle()) << t;
      EXPECT_EQ(copy.raw_vector(), reference.window_copy(t).raw_vector())
          << t;
    }
  }
}

TEST(StreamIngestor, WindowCopyOfUnknownTowerThrows) {
  StreamIngestor ingestor;
  EXPECT_THROW(ingestor.window_copy(42), InvalidArgument);
}

TEST(StreamIngestor, FromEnvReadsShardAndQueueKnobs) {
  ::setenv("CELLSCOPE_STREAM_SHARDS", "7", 1);
  ::setenv("CELLSCOPE_STREAM_QUEUE", "123", 1);
  const auto config = StreamConfig::from_env();
  EXPECT_EQ(config.n_shards, 7u);
  EXPECT_EQ(config.queue_capacity, 123u);
  // Junk, zero and overflow are errors, not a silent fall-back to the
  // defaults.
  for (const char* name :
       {"CELLSCOPE_STREAM_SHARDS", "CELLSCOPE_STREAM_QUEUE"}) {
    for (const char* bad : {"abc", "0", "12x", "99999999999999999999"}) {
      ::setenv(name, bad, 1);
      EXPECT_THROW(StreamConfig::from_env(), InvalidArgument)
          << name << "=" << bad;
    }
    ::setenv(name, "2", 1);
  }
  ::unsetenv("CELLSCOPE_STREAM_SHARDS");
  ::unsetenv("CELLSCOPE_STREAM_QUEUE");
  const auto defaults = StreamConfig::from_env();
  EXPECT_EQ(defaults.n_shards, StreamConfig{}.n_shards);
  EXPECT_EQ(defaults.queue_capacity, StreamConfig{}.queue_capacity);
}

TEST(StreamIngestor, ConcurrentProducersConserveBytes) {
  StreamIngestor ingestor(StreamConfig{.n_shards = 4, .queue_capacity = 0});
  ThreadPool pool(2);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;

  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&ingestor, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto tower = static_cast<std::uint32_t>((t * 31 + i) % 16);
        const auto minute = static_cast<std::uint64_t>(
            (i * 13) % (TimeGrid::kSlots * TimeGrid::kSlotMinutes));
        TrafficLog log;
        log.user_id = static_cast<std::uint64_t>(t);
        log.tower_id = tower;
        log.start_minute = static_cast<std::uint32_t>(minute);
        log.end_minute = static_cast<std::uint32_t>(minute);
        log.bytes = 3;
        ingestor.offer(log);
      }
    });
  }
  for (auto& thread : producers) thread.join();
  ingestor.drain(pool);

  const auto stats = ingestor.stats();
  EXPECT_EQ(stats.offered, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.accepted, stats.offered);
  std::uint64_t total = 0;
  for (const auto id : ingestor.tower_ids())
    total += ingestor.window_copy(id).total_bytes();
  EXPECT_EQ(total, 3u * kThreads * kPerThread);
}

}  // namespace
}  // namespace cellscope
