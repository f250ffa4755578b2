#include "stream/online_classifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time_grid.h"
#include "core/experiment.h"
#include "mapred/thread_pool.h"
#include "ml/validity.h"
#include "stream/ingestor.h"
#include "stream/tower_window.h"

namespace cellscope {
namespace {

constexpr std::size_t kWeek = TimeGrid::kSlotsPerWeek;
constexpr std::size_t kDay = TimeGrid::kSlotsPerDay;

/// Bitwise equality of two equally shaped sequences of trivially
/// copyable values (== would also equate 0.0 with -0.0).
template <typename T>
bool bit_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool rows_bit_equal(const std::vector<std::vector<double>>& a,
                    const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bit_equal(a[i], b[i])) return false;
  return true;
}

/// Daytime-peaked daily byte profile (office-like shape).
std::uint64_t office_bytes(std::size_t slot) {
  const double phase =
      2.0 * std::numbers::pi * static_cast<double>(slot % kDay) / kDay;
  return static_cast<std::uint64_t>(2000.0 + 1500.0 * std::sin(phase));
}

/// Inverted profile (night-peaked, resident-like shape).
std::uint64_t resident_bytes(std::size_t slot) {
  const double phase =
      2.0 * std::numbers::pi * static_cast<double>(slot % kDay) / kDay;
  return static_cast<std::uint64_t>(2000.0 - 1500.0 * std::sin(phase));
}

/// Two well-separated synthetic centroids: z-scored weekly folds of the
/// profiles above, built through a TowerWindow so the representation
/// matches what classify() computes.
ModelSnapshot synthetic_model() {
  ModelSnapshot model;
  for (const auto profile : {office_bytes, resident_bytes}) {
    TowerWindow window;
    for (std::size_t slot = 0; slot < TimeGrid::kSlots; ++slot)
      window.add(slot * TimeGrid::kSlotMinutes, profile(slot));
    model.centroids.push_back(window.folded_week());
  }
  model.regions = {FunctionalRegion::kOffice, FunctionalRegion::kResident};
  model.populations = {3, 10};  // resident is the prior
  model.has_primaries = false;
  return model;
}

TowerWindow window_with(std::uint64_t (*profile)(std::size_t),
                        std::size_t n_slots) {
  TowerWindow window;
  for (std::size_t slot = 0; slot < n_slots; ++slot)
    window.add(slot * TimeGrid::kSlotMinutes, profile(slot));
  return window;
}

TEST(OnlineClassifier, NearestCentroidOnWarmWindow) {
  const OnlineClassifier classifier(synthetic_model());
  EXPECT_EQ(classifier.prior_cluster(), 1u);

  const auto office = classifier.classify(
      window_with(office_bytes, TimeGrid::kSlots));
  EXPECT_EQ(office.cluster, 0u);
  EXPECT_EQ(office.region, FunctionalRegion::kOffice);
  EXPECT_FALSE(office.cold_start);
  EXPECT_GT(office.confidence, 0.0);
  EXPECT_LE(office.confidence, 1.0);
  EXPECT_LT(office.distance, 1e-6);  // exact profile: zero distance

  const auto resident = classifier.classify(
      window_with(resident_bytes, TimeGrid::kSlots));
  EXPECT_EQ(resident.cluster, 1u);
  EXPECT_EQ(resident.region, FunctionalRegion::kResident);
}

TEST(OnlineClassifier, PartialWeekStillClassifiesCorrectly) {
  const OnlineClassifier classifier(synthetic_model());
  // Two days of data — past cold start, well short of a full fold.
  const auto result = classifier.classify(window_with(office_bytes, 2 * kDay));
  EXPECT_FALSE(result.cold_start);
  EXPECT_EQ(result.cluster, 0u);
  EXPECT_TRUE(std::isfinite(result.confidence));
  EXPECT_TRUE(std::isfinite(result.distance));
}

TEST(OnlineClassifier, UnderHalfDayFallsBackToPrior) {
  const OnlineClassifier classifier(synthetic_model());
  // 40 observed slots < kMinMatchSlots: shape matching is off the table.
  const auto result = classifier.classify(window_with(office_bytes, 40));
  EXPECT_TRUE(result.cold_start);
  EXPECT_EQ(result.cluster, classifier.prior_cluster());
  EXPECT_EQ(result.confidence, 0.0);
  EXPECT_TRUE(std::isfinite(result.distance));
}

TEST(OnlineClassifier, BetweenHalfDayAndOneDayMatchesByShape) {
  const OnlineClassifier classifier(synthetic_model());
  // 100 slots: cold start (< kColdStartSlots) but enough history for
  // PatternForecaster::match — the shared batch cold-start path.
  const auto result = classifier.classify(window_with(office_bytes, 100));
  EXPECT_TRUE(result.cold_start);
  EXPECT_EQ(result.cluster, 0u);
  EXPECT_EQ(result.confidence, 0.0);
}

TEST(OnlineClassifier, EmptyAndConstantWindowsNeverProduceNaN) {
  const OnlineClassifier classifier(synthetic_model());

  const auto empty = classifier.classify(TowerWindow{});
  EXPECT_TRUE(empty.cold_start);
  EXPECT_EQ(empty.cluster, classifier.prior_cluster());
  EXPECT_TRUE(std::isfinite(empty.confidence));
  EXPECT_TRUE(std::isfinite(empty.distance));

  // Constant traffic z-scores to the zero vector; everything stays finite.
  TowerWindow constant;
  for (std::size_t slot = 0; slot < TimeGrid::kSlots; ++slot)
    constant.add(slot * TimeGrid::kSlotMinutes, 500);
  const auto result = classifier.classify(constant);
  EXPECT_FALSE(result.cold_start);
  EXPECT_TRUE(std::isfinite(result.confidence));
  EXPECT_TRUE(std::isfinite(result.distance));
  EXPECT_LT(result.cluster, 2u);
}

TEST(OnlineClassifier, ClassifyAllCoversEveryRegisteredTower) {
  const OnlineClassifier classifier(synthetic_model());
  StreamIngestor ingestor(StreamConfig{.n_shards = 3, .queue_capacity = 0});
  std::vector<Tower> towers(5);
  for (std::uint32_t i = 0; i < towers.size(); ++i) towers[i].id = i * 3;
  ingestor.register_towers(towers);

  // Warm up tower 0 with an office profile; leave the rest silent.
  ThreadPool pool(2);
  for (std::size_t slot = 0; slot < TimeGrid::kSlots; ++slot) {
    TrafficLog log;
    log.tower_id = 0;
    log.start_minute =
        static_cast<std::uint32_t>(slot * TimeGrid::kSlotMinutes);
    log.end_minute = log.start_minute;
    log.bytes = office_bytes(slot);
    ingestor.offer(log);
  }
  ingestor.drain(pool);

  const auto labels = classifier.classify_all(ingestor, &pool);
  ASSERT_EQ(labels.size(), towers.size());
  EXPECT_EQ(labels.front().first, 0u);
  EXPECT_EQ(labels.front().second.cluster, 0u);
  EXPECT_FALSE(labels.front().second.cold_start);
  for (std::size_t i = 1; i < labels.size(); ++i) {
    EXPECT_TRUE(labels[i].second.cold_start);
    EXPECT_EQ(labels[i].second.cluster, classifier.prior_cluster());
  }
  // Serial and pooled passes agree.
  const auto serial = classifier.classify_all(ingestor, nullptr);
  ASSERT_EQ(serial.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(serial[i].first, labels[i].first);
    EXPECT_EQ(serial[i].second.cluster, labels[i].second.cluster);
    EXPECT_EQ(serial[i].second.confidence, labels[i].second.confidence);
  }
}

TEST(OnlineClassifier, SnapshotOfTrainedExperimentIsSelfConsistent) {
  ExperimentConfig config;
  config.n_towers = 300;
  const auto experiment = Experiment::run(config);
  const auto model = snapshot_model(experiment);

  ASSERT_EQ(model.centroids.size(), experiment.n_clusters());
  ASSERT_EQ(model.regions.size(), model.centroids.size());
  ASSERT_EQ(model.populations.size(), model.centroids.size());
  std::size_t population = 0;
  for (std::size_t c = 0; c < model.centroids.size(); ++c) {
    EXPECT_EQ(model.centroids[c].size(), kWeek);
    EXPECT_EQ(model.regions[c], experiment.labeling().region_of_cluster[c]);
    population += model.populations[c];
  }
  EXPECT_EQ(population, experiment.towers().size());

  // The products Experiment keeps are the ones its z-scored rows give,
  // and the snapshot is their per-cluster mean, bit for bit.
  const auto zscored = zscore_rows(experiment.matrix());
  EXPECT_TRUE(rows_bit_equal(experiment.folded(), fold_to_week(zscored)));
  EXPECT_TRUE(
      bit_equal(experiment.freq_features(), compute_freq_features(zscored)));
  EXPECT_TRUE(rows_bit_equal(
      model.centroids,
      cluster_centroids(experiment.folded(), experiment.labels())));
  std::vector<std::size_t> label_counts(experiment.n_clusters(), 0);
  for (const int label : experiment.labels())
    ++label_counts[static_cast<std::size_t>(label)];
  EXPECT_EQ(model.populations, label_counts);

  // The classifier built from it assigns training-like profiles sanely:
  // replay each training tower's raw row through a window and check the
  // bulk of them land on their training cluster.
  const OnlineClassifier classifier(model);
  const auto& matrix = experiment.matrix();
  std::size_t agree = 0;
  for (std::size_t r = 0; r < matrix.n(); ++r) {
    TowerWindow window;
    for (std::size_t s = 0; s < TimeGrid::kSlots; ++s)
      window.add(s * TimeGrid::kSlotMinutes,
                 static_cast<std::uint64_t>(
                     std::llround(std::max(0.0, matrix.rows[r][s]))));
    const auto result = classifier.classify(window);
    EXPECT_FALSE(result.cold_start);
    if (result.cluster == static_cast<std::size_t>(experiment.labels()[r]))
      ++agree;
  }
  EXPECT_GT(agree, matrix.n() * 7 / 10);
}

TEST(OnlineClassifier, NearestCentroidMatchesExplicitScanOnSmallModels) {
  // nearest_centroid must be the explicit classify loop exactly: same
  // argmin, same strict-< first-index tie-break, same distance value bit
  // for bit.
  const auto model = synthetic_model();
  const OnlineClassifier classifier(model);
  for (const auto profile : {office_bytes, resident_bytes}) {
    const auto folded = window_with(profile, TimeGrid::kSlots).folded_week();
    double want_best = squared_distance(folded, model.centroids[0]);
    std::size_t want = 0;
    for (std::size_t c = 1; c < model.centroids.size(); ++c) {
      const double d = squared_distance(folded, model.centroids[c]);
      if (d < want_best) {
        want_best = d;
        want = c;
      }
    }
    double got_best = 0.0;
    EXPECT_EQ(classifier.nearest_centroid(folded, &got_best), want);
    EXPECT_EQ(got_best, want_best);
  }
}

TEST(OnlineClassifier, NearestCentroidMatchesExplicitScanOnLargeModels) {
  // A model far wider than the paper's five patterns is scanned the same
  // way: the answers match the explicit scan, distances included.
  Rng rng(99);
  ModelSnapshot model;
  const std::size_t k = 150;
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<double> centroid(kWeek);
    for (auto& v : centroid) v = static_cast<double>(c) * 6.0 + rng.normal();
    model.centroids.push_back(std::move(centroid));
    model.regions.push_back(
        static_cast<FunctionalRegion>(c % 5));
    model.populations.push_back(1 + c % 7);
  }
  const OnlineClassifier classifier(model);
  for (std::size_t trial = 0; trial < 100; ++trial) {
    std::vector<double> query(kWeek);
    const double center = static_cast<double>(trial % k) * 6.0;
    for (auto& v : query) v = center + 0.5 * rng.normal();
    double want_best = squared_distance(query, model.centroids[0]);
    std::size_t want = 0;
    for (std::size_t c = 1; c < k; ++c) {
      const double d = squared_distance(query, model.centroids[c]);
      if (d < want_best) {
        want_best = d;
        want = c;
      }
    }
    double got_best = 0.0;
    EXPECT_EQ(classifier.nearest_centroid(query, &got_best), want)
        << "trial " << trial;
    EXPECT_EQ(got_best, want_best) << "trial " << trial;
  }
}

TEST(OnlineClassifier, NearestCentroidTiesKeepTheLowestIndex) {
  // Duplicate centroids: the first index wins — the strict < of the
  // ascending scan.
  const std::vector<double> a(kWeek, 1.0);
  std::vector<double> b(kWeek, -4.0);
  b[7] = 9.0;
  ModelSnapshot model;
  model.centroids = {b, a, a, b, a};
  model.regions.assign(5, FunctionalRegion::kComprehensive);
  model.populations.assign(5, 1);
  const OnlineClassifier classifier(model);
  EXPECT_EQ(classifier.nearest_centroid(a), 1u);
  EXPECT_EQ(classifier.nearest_centroid(b), 0u);
}

TEST(OnlineClassifier, NearestCentroidRejectsMismatchedDimension) {
  const OnlineClassifier classifier(synthetic_model());
  const std::vector<double> wrong_dim = {1.0, 2.0};
  EXPECT_THROW(classifier.nearest_centroid(wrong_dim), Error);
  const std::vector<double> one_slot_long(kWeek + 1, 0.0);
  EXPECT_THROW(classifier.nearest_centroid(one_slot_long), Error);
}

}  // namespace
}  // namespace cellscope
