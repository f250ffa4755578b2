// Event-time progress semantics: watermarks must only advance — under
// in-order feeds, bounded reorder, and a deliberately late tail — and the
// lag/latency histograms must count exactly the records the watermark
// definition says they should. These are the live signals /stream and the
// lateness sentinels report, so their semantics are pinned here.
#include "stream/ingestor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "stream/replay.h"
#include "stream/tower_window.h"

namespace cellscope {
namespace {

TrafficLog make_log(std::uint32_t tower, std::uint32_t start,
                    std::uint32_t duration = 5, std::uint64_t bytes = 100) {
  TrafficLog log;
  log.user_id = tower * 1000 + start;
  log.tower_id = tower;
  log.start_minute = start;
  log.end_minute = start + duration;
  log.bytes = bytes;
  return log;
}

TEST(Watermark, LowWatermarkTrailsWatermarkByLatenessBound) {
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  // Before the lateness bound is cleared, the low watermark clamps to 0.
  ingestor.offer(make_log(0, 50, 10));
  EXPECT_EQ(ingestor.stats().watermark_minute, 60u);
  EXPECT_EQ(ingestor.stats().low_watermark_minute, 0u);

  ingestor.offer(make_log(0, 500, 10));
  const auto stats = ingestor.stats();
  EXPECT_EQ(stats.watermark_minute, 510u);
  EXPECT_EQ(stats.low_watermark_minute, 510u - kMaxLatenessMinutes);
}

TEST(Watermark, LateRecordNeverRegressesTheWatermark) {
  StreamIngestor ingestor(StreamConfig{.n_shards = 1, .queue_capacity = 0});
  ingestor.offer(make_log(0, 1000, 10));
  const auto before = ingestor.stats();
  EXPECT_EQ(before.watermark_minute, 1010u);
  EXPECT_EQ(before.late, 0u);

  // A record far behind the frontier: counted late, watermark unmoved.
  ingestor.offer(make_log(0, 10, 5));
  const auto after = ingestor.stats();
  EXPECT_EQ(after.watermark_minute, 1010u);
  EXPECT_EQ(after.low_watermark_minute, before.low_watermark_minute);
  EXPECT_EQ(after.late, 1u);
}

TEST(Watermark, PerShardWatermarksTrackOnlyRoutedRecords) {
  // Two shards; tower 0 routes to shard 0, tower 1 to shard 1.
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  ingestor.offer(make_log(0, 990, 10));  // shard 0: end 1000
  ingestor.offer(make_log(1, 295, 5));   // shard 1: end 300

  const auto shards = ingestor.shard_stats();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].shard, 0u);
  EXPECT_EQ(shards[0].watermark_minute, 1000u);
  EXPECT_EQ(shards[0].low_watermark_minute, 880u);
  EXPECT_EQ(shards[1].watermark_minute, 300u);
  EXPECT_EQ(shards[1].low_watermark_minute, 180u);
  // The global watermark is the max over shards; the global low watermark
  // derives from it (the lateness frontier), not from the slowest shard.
  EXPECT_EQ(ingestor.stats().watermark_minute, 1000u);
  EXPECT_EQ(ingestor.stats().low_watermark_minute, 880u);
}

TEST(Watermark, MonotoneUnderOutOfOrderAndLateReplay) {
  // A perturbed replay (bounded reorder + 10% late tail) must never move
  // any watermark backwards between observations.
  constexpr std::uint32_t kTowers = 16;
  std::vector<TrafficLog> logs;
  Rng rng(7);
  for (std::uint32_t i = 0; i < 4000; ++i) {
    logs.push_back(make_log(
        static_cast<std::uint32_t>(rng.uniform_int(0, kTowers - 1)),
        i * 2, static_cast<std::uint32_t>(rng.uniform_int(0, 20))));
  }
  ReplayOptions options;
  options.skew_window = 50;
  options.late_fraction = 0.1;
  const auto perturbed = perturb_arrival_order(logs, options);

  StreamIngestor ingestor(StreamConfig{.n_shards = 4, .queue_capacity = 0});
  ThreadPool pool(2);
  std::uint64_t last_watermark = 0;
  std::uint64_t last_low = 0;
  std::vector<std::uint64_t> last_shard(4, 0);
  constexpr std::size_t kChunk = 256;
  for (std::size_t begin = 0; begin < perturbed.size(); begin += kChunk) {
    const std::size_t end = std::min(perturbed.size(), begin + kChunk);
    ingestor.offer_batch(std::span<const TrafficLog>(
        perturbed.data() + begin, end - begin));
    ingestor.drain(pool);
    const auto stats = ingestor.stats();
    EXPECT_GE(stats.watermark_minute, last_watermark);
    EXPECT_GE(stats.low_watermark_minute, last_low);
    last_watermark = stats.watermark_minute;
    last_low = stats.low_watermark_minute;
    const auto shards = ingestor.shard_stats();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      EXPECT_GE(shards[s].watermark_minute, last_shard[s]);
      last_shard[s] = shards[s].watermark_minute;
    }
  }
  EXPECT_GT(ingestor.stats().late, 0u) << "late tail should trip the bound";
}

TEST(EventLag, HistogramCountsMatchKnownLags) {
  auto& hist = obs::MetricsRegistry::instance().histogram(
      "cellscope.stream.event_lag_minutes", obs::pow2_minute_buckets());
  hist.reset();
  StreamIngestor ingestor(StreamConfig{.n_shards = 1, .queue_capacity = 0});

  // Frontier record: lag measured against the pre-update watermark (0),
  // so it observes lag 0 (bucket le=1).
  ingestor.offer(make_log(0, 2000, 10));  // watermark -> 2010
  // 10 minutes behind the watermark: bucket le=16 (index 4).
  ingestor.offer(make_log(0, 2000, 0));
  // 1000 minutes behind: bucket le=1024 (index 10).
  ingestor.offer(make_log(0, 1010, 0));

  EXPECT_EQ(hist.count(), 3u);
  const auto counts = hist.bucket_counts();
  EXPECT_EQ(counts[obs::pow2_minute_bucket(0)], 1u);
  EXPECT_EQ(counts[obs::pow2_minute_bucket(10)], 1u);
  EXPECT_EQ(counts[obs::pow2_minute_bucket(1000)], 1u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0 + 10.0 + 1000.0);
}

TEST(EventLag, BatchedOfferObservesOnePerRecord) {
  auto& hist = obs::MetricsRegistry::instance().histogram(
      "cellscope.stream.event_lag_minutes", obs::pow2_minute_buckets());
  hist.reset();
  StreamIngestor ingestor(StreamConfig{.n_shards = 3, .queue_capacity = 0});
  std::vector<TrafficLog> logs;
  for (std::uint32_t i = 0; i < 100; ++i) logs.push_back(make_log(i, i * 3));
  ingestor.offer_batch(logs);
  EXPECT_EQ(hist.count(), 100u);  // aggregated locally, flushed once
}

TEST(RecordLatency, ApplyAndEndToEndHistogramsFill) {
  auto& registry = obs::MetricsRegistry::instance();
  auto& apply = registry.histogram("cellscope.stream.record_apply_ms");
  auto& e2e = registry.histogram("cellscope.stream.record_e2e_ms");
  apply.reset();
  e2e.reset();

  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  ThreadPool pool(2);
  std::vector<TrafficLog> logs;
  for (std::uint32_t i = 0; i < 50; ++i) logs.push_back(make_log(i, i));
  ingestor.offer_batch(logs);
  ingestor.drain(pool);

  // Every applied record gets an offer->apply observation.
  EXPECT_EQ(apply.count(), 50u);

  // A classify pass resolves one end-to-end observation per shard that
  // had applied-but-unclassified records, and clears the frontier.
  ingestor.note_classify_pass();
  EXPECT_EQ(e2e.count(), 2u);
  for (const auto& shard : ingestor.shard_stats())
    EXPECT_DOUBLE_EQ(shard.unclassified_age_ms, 0.0);

  // A second pass with nothing new applied observes nothing.
  ingestor.note_classify_pass();
  EXPECT_EQ(e2e.count(), 2u);
}

TEST(StreamStatus, JsonCarriesGlobalsAndPerShardFields) {
  StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
  ingestor.offer(make_log(0, 400, 10));
  const std::string json = ingestor.status_json();
  EXPECT_NE(json.find("\"watermark_minute\":410"), std::string::npos);
  EXPECT_NE(json.find("\"low_watermark_minute\":290"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":[{\"shard\":0"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":1"), std::string::npos);
  EXPECT_NE(json.find("\"unclassified_age_ms\":"), std::string::npos);
}

TEST(TowerWindowWatermark, LatestMinuteTracksMaxAppliedStart) {
  TowerWindow window;
  EXPECT_EQ(window.latest_minute(), 0u);
  window.add(500, 10);
  window.add(100, 10);  // older record: watermark holds
  EXPECT_EQ(window.latest_minute(), 500u);
  window.add(777, 10);
  EXPECT_EQ(window.latest_minute(), 777u);
}

TEST(TowerWindowWatermark, RestoreReconstructsBinGranularWatermark) {
  TowerWindow window;
  window.add(505, 10);  // slot 50 of cycle 0 (10-minute slots)
  const auto restored = TowerWindow::from_state(window.state());
  // The exact start minute is not checkpointed; the restored watermark
  // rounds down to the newest bin's slot start.
  EXPECT_EQ(restored.latest_minute(), 500u);
}

}  // namespace
}  // namespace cellscope
