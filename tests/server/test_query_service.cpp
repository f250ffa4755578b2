// Socket-free endpoint layer of the query daemon: routing (the
// introspection endpoints included), the RCU model swap, and response
// bodies pinned against the underlying stream/model APIs — including
// bit-identical doubles (the server serializes with %.17g, so a parsed
// response must equal the in-process computation exactly).
#include "server/query_service.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "analysis/component_analysis.h"
#include "analysis/freq_features.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"
#include "stream/tower_window.h"

namespace cellscope::server {
namespace {

constexpr std::size_t kDay = TimeGrid::kSlotsPerDay;

std::uint64_t office_bytes(std::size_t slot) {
  const double phase =
      2.0 * std::numbers::pi * static_cast<double>(slot % kDay) / kDay;
  return static_cast<std::uint64_t>(2000.0 + 1500.0 * std::sin(phase));
}

std::uint64_t resident_bytes(std::size_t slot) {
  const double phase =
      2.0 * std::numbers::pi * static_cast<double>(slot % kDay) / kDay;
  return static_cast<std::uint64_t>(2000.0 - 1500.0 * std::sin(phase));
}

ModelSnapshot synthetic_model() {
  ModelSnapshot model;
  for (const auto profile : {office_bytes, resident_bytes}) {
    TowerWindow window;
    for (std::size_t slot = 0; slot < TimeGrid::kSlots; ++slot)
      window.add(slot * TimeGrid::kSlotMinutes, profile(slot));
    model.centroids.push_back(window.folded_week());
  }
  model.regions = {FunctionalRegion::kOffice, FunctionalRegion::kResident};
  model.populations = {3, 10};
  model.has_primaries = false;
  return model;
}

/// A POST /classify body: the week as a JSON array of %.17g numbers.
std::string week_body(const std::vector<double>& week) {
  std::string body = "[";
  for (std::size_t i = 0; i < week.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", week[i]);
    if (i > 0) body += ',';
    body += buf;
  }
  return body + "]";
}

HttpRequest get_request(std::string path, std::string query = "") {
  HttpRequest request;
  request.method = "GET";
  request.path = std::move(path);
  request.query = std::move(query);
  return request;
}

HttpRequest post_request(std::string path, std::string body) {
  HttpRequest request;
  request.method = "POST";
  request.path = std::move(path);
  request.body = std::move(body);
  return request;
}

class QueryServiceTest : public ::testing::Test {
 protected:
  // Tower 1: full office grid. Tower 2: full resident grid. Tower 3:
  // 10 slots (cold start, too short to forecast). Tower 4: 200 slots
  // (warm enough for both class and forecast).
  void SetUp() override {
    feed_tower(1, office_bytes, TimeGrid::kSlots);
    feed_tower(2, resident_bytes, TimeGrid::kSlots);
    feed_tower(3, office_bytes, 10);
    feed_tower(4, office_bytes, 200);
    ingestor.drain(pool);
  }

  void feed_tower(std::uint32_t tower_id,
                  std::uint64_t (*profile)(std::size_t),
                  std::size_t n_slots) {
    std::vector<TrafficLog> logs;
    logs.reserve(n_slots);
    for (std::size_t slot = 0; slot < n_slots; ++slot) {
      TrafficLog log;
      log.user_id = slot;
      log.tower_id = tower_id;
      log.start_minute =
          static_cast<std::uint32_t>(slot * TimeGrid::kSlotMinutes);
      log.end_minute = log.start_minute;
      log.bytes = profile(slot);
      logs.push_back(log);
    }
    ingestor.offer_batch(logs);
  }

  std::shared_ptr<const OnlineClassifier> make_classifier() {
    return std::make_shared<const OnlineClassifier>(synthetic_model());
  }

  ThreadPool pool{2};
  StreamIngestor ingestor;
  QueryService service{ingestor, &pool};
};

TEST_F(QueryServiceTest, ModelEndpointsAnswer503BeforeFirstPublish) {
  EXPECT_EQ(service.model(), nullptr);
  EXPECT_EQ(service.model_epoch(), 0u);
  EXPECT_EQ(service.dispatch(get_request("/towers/1/class")).status, 503);
  EXPECT_EQ(service.dispatch(get_request("/towers/1/forecast")).status, 503);
  EXPECT_EQ(service.dispatch(post_request("/classify", "[]")).status, 503);
  // Window and stats need no model.
  EXPECT_EQ(service.dispatch(get_request("/towers/1/window")).status, 200);
  EXPECT_EQ(service.dispatch(get_request("/stats")).status, 200);
}

TEST_F(QueryServiceTest, PublishSwapsModelAndBumpsEpoch) {
  const auto first = make_classifier();
  service.publish_model(first);
  EXPECT_EQ(service.model(), first);
  EXPECT_EQ(service.model_epoch(), 1u);
  const auto second = make_classifier();
  service.publish_model(second);
  EXPECT_EQ(service.model(), second);
  EXPECT_EQ(service.model_epoch(), 2u);
  EXPECT_THROW(service.publish_model(nullptr), Error);
}

TEST_F(QueryServiceTest, ClassEndpointIsBitIdenticalToClassifier) {
  const auto classifier = make_classifier();
  service.publish_model(classifier);
  for (const std::uint32_t tower : {1u, 2u, 3u, 4u}) {
    const auto response = service.dispatch(
        get_request("/towers/" + std::to_string(tower) + "/class"));
    ASSERT_EQ(response.status, 200) << response.body;
    const JsonValue doc = JsonValue::parse(response.body);
    EXPECT_EQ(doc.at("tower").as_number(), tower);
    const JsonValue& body = doc.at("classification");
    const Classification expected =
        classifier->classify(ingestor.window_copy(tower));
    EXPECT_EQ(static_cast<std::size_t>(body.at("cluster").as_number()),
              expected.cluster);
    EXPECT_EQ(body.at("region").as_string(), region_name(expected.region));
    // %.17g serialization: parsed doubles equal the computed ones bit
    // for bit.
    EXPECT_EQ(body.at("distance").as_number(), expected.distance);
    EXPECT_EQ(body.at("confidence").as_number(), expected.confidence);
    EXPECT_EQ(body.at("cold_start").as_bool(), expected.cold_start);
    EXPECT_EQ(body.at("model_epoch").as_number(), 1.0);
  }
}

TEST_F(QueryServiceTest, WindowEndpointMatchesWindowStats) {
  const auto response = service.dispatch(get_request("/towers/1/window"));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = JsonValue::parse(response.body);
  const TowerWindowStats stats = ingestor.window_stats(1);
  EXPECT_EQ(doc.at("observed_slots").as_number(),
            static_cast<double>(stats.observed_slots));
  EXPECT_EQ(doc.at("total_bytes").as_number(),
            static_cast<double>(stats.total_bytes));
  EXPECT_EQ(doc.at("mean").as_number(), stats.mean);
  EXPECT_EQ(doc.at("variance").as_number(), stats.variance);
  EXPECT_EQ(doc.at("latest_minute").as_number(),
            static_cast<double>(stats.latest_minute));
}

TEST_F(QueryServiceTest, ForecastEndpointMatchesForecaster) {
  const auto classifier = make_classifier();
  service.publish_model(classifier);

  const auto response = service.dispatch(
      get_request("/towers/4/forecast", "horizon=288"));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = JsonValue::parse(response.body);
  EXPECT_EQ(doc.at("horizon").as_number(), 288.0);

  const auto history = ingestor.window_copy(4).observed_history();
  const auto& forecaster = classifier->forecaster();
  const auto expected =
      forecaster.forecast(history, 288, forecaster.match(history));
  const auto& values = doc.at("values").as_array();
  ASSERT_EQ(values.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(values[i].as_number(), expected[i]) << "slot " << i;
  EXPECT_EQ(static_cast<std::size_t>(doc.at("template").as_number()),
            forecaster.match(history));

  // Default horizon is one day of slots.
  const auto default_response =
      service.dispatch(get_request("/towers/4/forecast"));
  ASSERT_EQ(default_response.status, 200);
  EXPECT_EQ(JsonValue::parse(default_response.body)
                .at("values")
                .as_array()
                .size(),
            static_cast<std::size_t>(TimeGrid::kSlotsPerDay));
}

TEST_F(QueryServiceTest, ForecastGuardsHorizonAndHistory) {
  service.publish_model(make_classifier());
  EXPECT_EQ(service
                .dispatch(get_request("/towers/4/forecast", "horizon=0"))
                .status,
            400);
  EXPECT_EQ(service
                .dispatch(get_request("/towers/4/forecast", "horizon=9999"))
                .status,
            400);
  EXPECT_EQ(service
                .dispatch(get_request("/towers/4/forecast", "horizon=abc"))
                .status,
            400);
  // Tower 3 has 10 observed slots — under the forecaster's match floor.
  const auto starving =
      service.dispatch(get_request("/towers/3/forecast"));
  EXPECT_EQ(starving.status, 409);
  EXPECT_NE(starving.body.find("insufficient history"), std::string::npos);
}

TEST_F(QueryServiceTest, ClassifyPostScoresAFoldedWeek) {
  const auto classifier = make_classifier();
  service.publish_model(classifier);
  const std::string body = week_body(classifier->model().centroids[1]);
  const auto response = service.dispatch(post_request("/classify", body));
  ASSERT_EQ(response.status, 200) << response.body;
  const JsonValue doc = JsonValue::parse(response.body);
  EXPECT_EQ(doc.at("cluster").as_number(), 1.0);
  EXPECT_EQ(doc.at("region").as_string(),
            region_name(FunctionalRegion::kResident));
  EXPECT_LT(doc.at("distance").as_number(), 1e-12);

  // The wrapped form routes identically.
  const auto wrapped = service.dispatch(
      post_request("/classify", "{\"folded_week\":" + body + "}"));
  EXPECT_EQ(wrapped.status, 200);
}

TEST_F(QueryServiceTest, ClassifyPostRejectsDamage) {
  service.publish_model(make_classifier());
  EXPECT_EQ(service.dispatch(post_request("/classify", "not json")).status,
            400);
  EXPECT_EQ(service.dispatch(post_request("/classify", "[1,2,3]")).status,
            400);  // wrong length
  EXPECT_EQ(service.dispatch(post_request("/classify", "{\"x\":1}")).status,
            400);
  std::string strings = "[";
  for (std::size_t i = 0; i < TimeGrid::kSlotsPerWeek; ++i)
    strings += i == 0 ? "\"a\"" : ",\"a\"";
  strings += "]";
  EXPECT_EQ(service.dispatch(post_request("/classify", strings)).status,
            400);
}

TEST_F(QueryServiceTest, ClassifyPostRejectsNonFiniteAndOverflowingWeeks) {
  service.publish_model(make_classifier());
  const auto week_with = [](const std::string& slot_7) {
    std::string body = "[";
    for (std::size_t i = 0; i < TimeGrid::kSlotsPerWeek; ++i) {
      if (i > 0) body += ',';
      body += i == 7 ? slot_7 : "0.5";
    }
    return body + "]";
  };
  // The JSON reader takes these through strtod; none may reach scoring.
  for (const char* poison : {"NaN", "-Infinity", "1e999"}) {
    const auto response =
        service.dispatch(post_request("/classify", week_with(poison)));
    EXPECT_EQ(response.status, 400) << poison;
    EXPECT_NE(response.body.find("finite"), std::string::npos) << poison;
  }
  // Finite, but its squared distance to every centroid overflows.
  EXPECT_EQ(service.dispatch(post_request("/classify", week_with("1e200")))
                .status,
            400);
  // Large but representable is still answered.
  EXPECT_EQ(service.dispatch(post_request("/classify", week_with("1e100")))
                .status,
            200);
}

TEST_F(QueryServiceTest, RoutingEdges) {
  service.publish_model(make_classifier());
  EXPECT_EQ(service.dispatch(get_request("/towers/99/class")).status, 404);
  EXPECT_EQ(service.dispatch(get_request("/towers/abc/class")).status, 400);
  EXPECT_EQ(service.dispatch(get_request("/towers/1/nope")).status, 404);
  EXPECT_EQ(service.dispatch(get_request("/towers/1")).status, 404);
  EXPECT_EQ(service.dispatch(get_request("/classify")).status, 405);
  EXPECT_EQ(service.dispatch(post_request("/stats", "")).status, 405);
  EXPECT_EQ(service.dispatch(post_request("/nope", "")).status, 405);
}

/// A z-scored-like week: one daily sinusoid at `phase` plus a half-day
/// harmonic of amplitude `half_day`.
std::vector<double> shaped_week(double phase, double half_day) {
  std::vector<double> week(TimeGrid::kSlotsPerWeek);
  for (std::size_t t = 0; t < week.size(); ++t) {
    const double x =
        2.0 * std::numbers::pi * static_cast<double>(t % kDay) / kDay;
    week[t] = std::sin(x + phase) + half_day * std::cos(2.0 * x);
  }
  return week;
}

/// The week repeated across the 4-week grid.
std::vector<double> tiled_month(const std::vector<double>& week) {
  std::vector<double> month;
  for (int rep = 0; rep < TimeGrid::kWeeks; ++rep)
    month.insert(month.end(), week.begin(), week.end());
  return month;
}

TEST_F(QueryServiceTest, ClassifyReadsThePostedWeeksOwnBins) {
  // Oracle: the decomposition of the week tiled across the 4-week grid,
  // whose bins 4, 28 and 56 carry the week's bins 1, 7 and 14.
  ModelSnapshot model = synthetic_model();
  std::vector<std::vector<double>> primaries;
  for (int j = 0; j < 4; ++j) {
    primaries.push_back(shaped_week(j * std::numbers::pi / 2, 0.2 * j));
    model.primary_features[j] =
        compute_freq_features(tiled_month(primaries.back())).qp_feature();
  }
  model.has_primaries = true;
  const auto classifier = std::make_shared<const OnlineClassifier>(model);
  service.publish_model(classifier);

  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    // A random convex mix of the primaries plus noise.
    std::array<double, 4> mix{};
    double total = 0.0;
    for (auto& m : mix) total += m = rng.uniform();
    std::vector<double> week(TimeGrid::kSlotsPerWeek, 0.0);
    for (std::size_t t = 0; t < week.size(); ++t) {
      for (int j = 0; j < 4; ++j) week[t] += mix[j] / total * primaries[j][t];
      week[t] += rng.normal(0.0, 0.05);
    }

    const auto response =
        service.dispatch(post_request("/classify", week_body(week)));
    ASSERT_EQ(response.status, 200) << response.body;
    const JsonValue doc = JsonValue::parse(response.body);
    double distance = 0.0;
    const std::size_t cluster = classifier->nearest_centroid(week, &distance);
    EXPECT_EQ(doc.at("cluster").as_number(), static_cast<double>(cluster));
    EXPECT_EQ(doc.at("region").as_string(),
              region_name(model.regions[cluster]));
    EXPECT_EQ(doc.at("distance").as_number(), distance);

    const Decomposition oracle = decompose_feature(
        compute_freq_features(tiled_month(week)).qp_feature(),
        model.primary_features);
    const auto& weights = doc.at("weights").as_array();
    ASSERT_EQ(weights.size(), 4u);
    // Convex weights sum to 1, so 1e-9 absolute is 1e-9 of their scale.
    for (std::size_t w = 0; w < 4; ++w)
      EXPECT_NEAR(weights[w].as_number(), oracle.coefficients[w], 1e-9)
          << "trial " << trial << " weight " << w;
    EXPECT_NEAR(doc.at("residual").as_number(), oracle.residual,
                1e-9 * oracle.residual)
        << "trial " << trial;
  }
}

TEST_F(QueryServiceTest, UnknownGetsFallBackToIntrospectionPlane) {
  const auto metrics = service.dispatch(get_request("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  const auto health = service.dispatch(get_request("/healthz"));
  EXPECT_NE(health.body.find("\"verdicts\""), std::string::npos);
  EXPECT_EQ(service.dispatch(get_request("/no/such/endpoint")).status, 404);
}

TEST_F(QueryServiceTest, ServesBuiltInIntrospectionEndpoints) {
  obs::MetricsRegistry::instance().counter("test.router.counter").add(1);
  const auto metrics = service.dispatch(get_request("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.body.find("test_router_counter"), std::string::npos);

  const auto json = service.dispatch(get_request("/metrics.json"));
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_NE(json.body.find("\"counters\""), std::string::npos);

  const auto health = service.dispatch(get_request("/healthz"));
  EXPECT_EQ(health.content_type, "application/json");
  EXPECT_NE(health.body.find("\"verdicts\""), std::string::npos);

  // The wire parser splits the query string off; routing sees the path.
  EXPECT_EQ(service.dispatch(get_request("/metrics", "x=1")).status, 200);
  EXPECT_EQ(service.dispatch(get_request("/no/such/endpoint")).status, 404);
}

TEST_F(QueryServiceTest, HealthzAnswers503AfterAFailingVerdict) {
  auto& board = obs::QualityBoard::instance();
  board.clear();
  const auto healthy = service.dispatch(get_request("/healthz"));
  EXPECT_EQ(healthy.status, 200);
  EXPECT_EQ(JsonValue::parse(healthy.body).at("ok").as_bool(), true);

  board.record("test.router", "test_router_check", obs::Severity::kFail,
               {false, 1.0, "forced failure"});
  const auto failing = service.dispatch(get_request("/healthz"));
  EXPECT_EQ(failing.status, 503);
  EXPECT_EQ(failing.content_type, "application/json");
  const JsonValue doc = JsonValue::parse(failing.body);
  EXPECT_EQ(doc.at("ok").as_bool(), false);
  EXPECT_EQ(doc.at("failed").as_number(), 1.0);
  EXPECT_EQ(doc.at("dropped").as_number(), 0.0);
  EXPECT_NE(failing.body.find("test_router_check"), std::string::npos);
  board.clear();
}

TEST_F(QueryServiceTest, StreamReportsItsOwnIngestorWhileAnotherLives) {
  const auto served_watermark = [&] {
    const auto response = service.dispatch(get_request("/stream"));
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.content_type, "application/json");
    return JsonValue::parse(response.body).at("watermark_minute").as_number();
  };
  const auto own = static_cast<double>(ingestor.stats().watermark_minute);
  ASSERT_GT(own, 0.0);
  EXPECT_EQ(served_watermark(), own);
  {
    StreamIngestor other(StreamConfig{.n_shards = 2, .queue_capacity = 0});
    TrafficLog log;
    log.tower_id = 1;
    log.start_minute = 100000;
    log.end_minute = 100010;
    log.bytes = 42;
    other.offer(log);
    EXPECT_EQ(served_watermark(), own);
  }
  EXPECT_EQ(served_watermark(), own);
}

TEST_F(QueryServiceTest, StatsReportsServingPlane) {
  service.publish_model(make_classifier());
  // Drive one request through each family so the endpoint table is live.
  service.dispatch(get_request("/towers/1/class"));
  service.dispatch(get_request("/towers/1/window"));
  const auto response = service.dispatch(get_request("/stats"));
  ASSERT_EQ(response.status, 200);
  const JsonValue doc = JsonValue::parse(response.body);
  EXPECT_EQ(doc.at("model_epoch").as_number(), 1.0);
  EXPECT_EQ(doc.at("model_published").as_bool(), true);
  ASSERT_TRUE(doc.contains("endpoints"));
  ASSERT_TRUE(doc.at("endpoints").contains("class"));
  EXPECT_TRUE(doc.at("endpoints").at("class").contains("p99_ms"));
  ASSERT_TRUE(doc.contains("ingest"));
  EXPECT_TRUE(doc.at("ingest").contains("shards"));
}

}  // namespace
}  // namespace cellscope::server
