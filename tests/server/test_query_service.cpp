// Socket-free endpoint layer of the query daemon: routing, the RCU model
// swap, and response bodies pinned against the underlying stream/model
// APIs — including bit-identical doubles (the server serializes with
// %.17g, so a parsed response must equal the in-process computation
// exactly).
#include "server/query_service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"
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
  const auto expected = classifier->forecaster().forecast(history, 288);
  const auto& values = doc.at("values").as_array();
  ASSERT_EQ(values.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(values[i].as_number(), expected[i]) << "slot " << i;
  EXPECT_EQ(static_cast<std::size_t>(doc.at("template").as_number()),
            classifier->forecaster().match(history));

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
  const auto& centroid = classifier->model().centroids[1];
  std::string body = "[";
  for (std::size_t i = 0; i < centroid.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", centroid[i]);
    if (i > 0) body += ',';
    body += buf;
  }
  body += "]";
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

TEST_F(QueryServiceTest, UnknownGetsFallBackToIntrospectionPlane) {
  const auto metrics = service.dispatch(get_request("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  const auto health = service.dispatch(get_request("/healthz"));
  EXPECT_NE(health.body.find("\"verdicts\""), std::string::npos);
  EXPECT_EQ(service.dispatch(get_request("/no/such/endpoint")).status, 404);
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
