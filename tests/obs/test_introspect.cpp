// Introspection plane: the endpoint registry's routing (built-in
// endpoints, throwing handlers, owner-scoped removal, /stream following
// the ingestor's lifetime) and the deterministic trace sampler, all
// through handle() without a socket. The registry served over real
// sockets lives in tests/server/test_server_introspect.cpp. Labeled
// `introspect` so scripts/check_stream.sh runs it under ThreadSanitizer.
#include "obs/introspect.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace_sample.h"
#include "stream/ingestor.h"

namespace cellscope::obs {
namespace {

TEST(EndpointRegistry, HandleRoutesBuiltInEndpoints) {
  auto& registry = EndpointRegistry::instance();
  MetricsRegistry::instance().counter("test.introspect.counter").add(1);

  const auto metrics = registry.handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("test_introspect_counter"), std::string::npos);

  const auto json = registry.handle("/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_NE(json.body.find("\"counters\""), std::string::npos);

  const auto health = registry.handle("/healthz");
  EXPECT_NE(health.body.find("\"verdicts\""), std::string::npos);

  EXPECT_EQ(registry.handle("/nope").status, 404);
  // Query strings are stripped before routing.
  EXPECT_EQ(registry.handle("/metrics?x=1").status, 200);
}

TEST(EndpointRegistry, ThrowingHandlerBecomesInternalError) {
  auto& registry = EndpointRegistry::instance();
  registry.set_handler("/test/throws", []() -> HttpResponse {
    throw std::runtime_error("boom");
  });
  const auto response = registry.handle("/test/throws");
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("boom"), std::string::npos);
  registry.remove_handler("/test/throws");
  EXPECT_EQ(registry.handle("/test/throws").status, 404);
}

TEST(EndpointRegistry, RemoveHandlerRespectsOwnership) {
  auto& registry = EndpointRegistry::instance();
  const int owner_a = 0;
  const int owner_b = 0;
  registry.set_handler("/test/owned", [] { return HttpResponse{}; }, &owner_a);
  // The wrong owner cannot tear down another component's endpoint.
  registry.remove_handler("/test/owned", &owner_b);
  EXPECT_EQ(registry.handle("/test/owned").status, 200);
  registry.remove_handler("/test/owned", &owner_a);
  EXPECT_EQ(registry.handle("/test/owned").status, 404);
}

TEST(EndpointRegistry, StreamEndpointFollowsIngestorLifetime) {
  auto& registry = EndpointRegistry::instance();
  {
    StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
    TrafficLog log;
    log.tower_id = 1;
    log.start_minute = 100;
    log.end_minute = 110;
    log.bytes = 42;
    ingestor.offer(log);
    const auto response = registry.handle("/stream");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.content_type, "application/json");
    EXPECT_NE(response.body.find("\"watermark_minute\":110"),
              std::string::npos);
    EXPECT_NE(response.body.find("\"shards\":["), std::string::npos);
  }
  // The destructor deregisters (and drains in-flight requests), so a
  // scrape after teardown is a clean 404, not a use-after-free.
  EXPECT_EQ(registry.handle("/stream").status, 404);
}

TEST(TraceSampler, DecisionIsDeterministicAndScalesWithN) {
  auto& sampler = TraceSampler::instance();
  const std::uint32_t saved = sampler.sample_every();
  sampler.set_sample_every(0);
  EXPECT_FALSE(sampler.active());
  EXPECT_FALSE(sampler.sampled(mix64(123)));  // off samples nothing

  sampler.set_sample_every(1);
  EXPECT_TRUE(sampler.sampled(mix64(123)));  // 1-in-1 samples everything

  sampler.set_sample_every(8);
  std::size_t hits = 0;
  constexpr std::size_t kRecords = 4096;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const bool first = sampler.sampled(mix64(i));
    EXPECT_EQ(first, sampler.sampled(mix64(i)));  // same record, same call
    if (first) ++hits;
  }
  // A well-mixed hash lands near 1-in-8 (generous bounds, deterministic
  // inputs so this cannot flake).
  EXPECT_GT(hits, kRecords / 16);
  EXPECT_LT(hits, kRecords / 4);
  sampler.set_sample_every(saved);
}

}  // namespace
}  // namespace cellscope::obs
