// The stream-vs-batch equivalence contract (DESIGN.md §9): for the same
// record set, any shard count and any arrival-order perturbation must
// yield per-tower grids and folded-week vectors BIT-IDENTICAL to the
// batch vectorize -> zscore -> fold chain. Bin updates are exact integer
// sums and the stream folds through the very same batch helpers, so the
// assertions below are EXPECT_EQ on doubles — no tolerance.
#include <gtest/gtest.h>

#include <vector>

#include "city/deployment.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"
#include "obs/quality.h"
#include "pipeline/vectorizer.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "traffic/trace_generator.h"

namespace cellscope {
namespace {

class StreamEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto city = CityModel::create_default();
    DeploymentOptions deployment;
    deployment.n_towers = 8;
    towers_ = deploy_towers(city, deployment);
    const auto intensity = IntensityModel::create(towers_, IntensityOptions{});

    // Full 28-day trace, sessions coarsened 10x so all four weeks stay
    // affordable. Its duplicate and conflicting copies stay in: both
    // paths see the same records, and the contract is about aggregation
    // order.
    TraceOptions options;
    options.mean_session_bytes = 2.0e6;
    logs_ = generate_trace(towers_, intensity, options).logs;
    ASSERT_GT(logs_.size(), 10000u);
  }

  std::vector<Tower> towers_;
  std::vector<TrafficLog> logs_;
};

TEST_F(StreamEquivalenceTest, AnyShardingAndArrivalOrderMatchesBatchExactly) {
  ThreadPool pool(2);

  // Batch reference: the §3.2 chain.
  const auto matrix = vectorize_logs(logs_, towers_, pool);
  const auto folded = fold_to_week(zscore_rows(matrix, &pool), &pool);

  struct Case {
    std::size_t shards;
    std::uint64_t seed;
    std::size_t skew;
    double late;
  };
  const Case cases[] = {
      {1, 11, 0, 0.0},      // single shard, in order
      {3, 22, 1024, 0.02},  // skewed + late tail
      {8, 33, 4096, 0.10},  // heavy reorder, more shards than cores
  };

  for (const auto& test_case : cases) {
    SCOPED_TRACE("shards=" + std::to_string(test_case.shards));
    StreamIngestor ingestor(StreamConfig{.n_shards = test_case.shards,
                                         .queue_capacity = 0});
    ingestor.register_towers(towers_);

    ReplayOptions options;
    options.seed = test_case.seed;
    options.skew_window = test_case.skew;
    options.late_fraction = test_case.late;
    const auto arrival = perturb_arrival_order(logs_, options);
    const auto stats = replay_trace(arrival, ingestor, pool, options);
    EXPECT_EQ(stats.ingest.accepted, logs_.size());
    EXPECT_EQ(stats.ingest.dropped, 0u);

    // Raw grids: exact integer sums, identical to the batch rows.
    for (const auto id : ingestor.tower_ids()) {
      const auto window = ingestor.window_copy(id);
      EXPECT_EQ(window.raw_vector(), matrix.rows[matrix.row_of(id)]);
    }

    // Folded z-scored weeks: bit-identical to the batch fold.
    const auto stream_folded = ingestor.folded_vectors(&pool);
    ASSERT_EQ(stream_folded.size(), matrix.n());
    for (const auto& [id, vec] : stream_folded) {
      ASSERT_EQ(vec.size(), TimeGrid::kSlotsPerWeek);
      EXPECT_EQ(vec, folded[matrix.row_of(id)]);
    }
  }
}

TEST_F(StreamEquivalenceTest, ReplaySentinelsJudgeThatReplayAlone) {
  // cellscoped's rounds: one feed replayed twice into one ingestor, the
  // second pass one grid later. The second replay's verdicts read its
  // own late and dropped records over its own offered ones.
  ThreadPool pool(2);
  StreamIngestor ingestor(StreamConfig{.queue_capacity = 0});
  ingestor.register_towers(towers_);
  ReplayOptions options;
  options.seed = 44;
  options.skew_window = 32;
  options.late_fraction = 0.02;
  auto feed = perturb_arrival_order(logs_, options);
  const auto first = replay_trace(feed, ingestor, pool, options);
  for (auto& log : feed) {
    log.start_minute += TimeGrid::kSlots * TimeGrid::kSlotMinutes;
    log.end_minute += TimeGrid::kSlots * TimeGrid::kSlotMinutes;
  }
  auto& board = obs::QualityBoard::instance();
  board.clear();
  const auto second = replay_trace(feed, ingestor, pool, options);
  const auto late =
      static_cast<std::size_t>(second.ingest.late - first.ingest.late);
  ASSERT_GT(first.ingest.late, 0u);
  ASSERT_GT(late, 0u);
  EXPECT_EQ(second.ingest.offered, 2 * feed.size());  // lifetime counters

  const auto verdicts = board.verdicts();
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].check, "stream_drop_ratio");
  EXPECT_EQ(verdicts[0].detail,
            obs::check_reject_ratio(0, feed.size(), 0.01).detail);
  EXPECT_EQ(verdicts[1].check, "stream_late_ratio");
  EXPECT_EQ(verdicts[1].detail,
            obs::check_reject_ratio(late, feed.size(), 0.25).detail);
  board.clear();
}

TEST_F(StreamEquivalenceTest, PerturbationIsDeterministicInTheSeed) {
  ReplayOptions options;
  options.seed = 5;
  options.skew_window = 100;
  options.late_fraction = 0.05;
  const auto a = perturb_arrival_order(logs_, options);
  const auto b = perturb_arrival_order(logs_, options);
  EXPECT_EQ(a, b);

  options.seed = 6;
  const auto c = perturb_arrival_order(logs_, options);
  EXPECT_NE(a, c);  // different seed, different order…
  EXPECT_EQ(a.size(), c.size());  // …same multiset of records
}

}  // namespace
}  // namespace cellscope
