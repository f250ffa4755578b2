// Introspection plane: the embedded HTTP stats server (handler routing,
// component-owned endpoints, real socket round-trips) and the
// deterministic trace sampler. Labeled `introspect` so
// scripts/check_stream.sh can race-check the server against live metric
// traffic under ThreadSanitizer.
#include "obs/introspect.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace_sample.h"
#include "stream/ingestor.h"

namespace cellscope::obs {
namespace {

/// Minimal loopback HTTP client: sends one request verbatim, returns the
/// full response (head + body).
std::string http_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  // Half-close so a request with no head terminator still reaches EOF on
  // the server side (the malformed-line 400 tests depend on this).
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

std::string get(std::uint16_t port, const std::string& path) {
  return http_request(port,
                      "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

TEST(IntrospectionServer, EnvPortRejectsJunkSignsSpacesAndOverflow) {
  // Each value once became a port through strtoul (" 80" and "+80" as
  // 80); all of them must log introspect.bad_port and start nothing.
  auto& server = IntrospectionServer::instance();
  server.stop();
  for (const char* bad :
       {"abc", " 80", "+80", "80 ", "-1", "65536", "99999999999999999999"}) {
    ::setenv("CELLSCOPE_INTROSPECT_PORT", bad, 1);
    EXPECT_FALSE(IntrospectionServer::maybe_start_from_env())
        << "'" << bad << "'";
    EXPECT_FALSE(server.running()) << "'" << bad << "'";
  }
  ::unsetenv("CELLSCOPE_INTROSPECT_PORT");
}

TEST(IntrospectionServer, HandleRoutesBuiltInEndpoints) {
  auto& server = IntrospectionServer::instance();
  MetricsRegistry::instance().counter("test.introspect.counter").add(1);

  const auto metrics = server.handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("test_introspect_counter"), std::string::npos);

  const auto json = server.handle("/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_NE(json.body.find("\"counters\""), std::string::npos);

  const auto health = server.handle("/healthz");
  EXPECT_NE(health.body.find("\"verdicts\""), std::string::npos);

  EXPECT_EQ(server.handle("/nope").status, 404);
  // Query strings are stripped before routing.
  EXPECT_EQ(server.handle("/metrics?x=1").status, 200);
}

TEST(IntrospectionServer, ThrowingHandlerBecomesInternalError) {
  auto& server = IntrospectionServer::instance();
  server.set_handler("/test/throws", []() -> HttpResponse {
    throw std::runtime_error("boom");
  });
  const auto response = server.handle("/test/throws");
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("boom"), std::string::npos);
  server.remove_handler("/test/throws");
  EXPECT_EQ(server.handle("/test/throws").status, 404);
}

TEST(IntrospectionServer, RemoveHandlerRespectsOwnership) {
  auto& server = IntrospectionServer::instance();
  const int owner_a = 0;
  const int owner_b = 0;
  server.set_handler("/test/owned", [] { return HttpResponse{}; }, &owner_a);
  // The wrong owner cannot tear down another component's endpoint.
  server.remove_handler("/test/owned", &owner_b);
  EXPECT_EQ(server.handle("/test/owned").status, 200);
  server.remove_handler("/test/owned", &owner_a);
  EXPECT_EQ(server.handle("/test/owned").status, 404);
}

TEST(IntrospectionServer, ServesRealSocketsOnEphemeralPort) {
  auto& server = IntrospectionServer::instance();
  MetricsRegistry::instance().counter("test.introspect.socket").add(1);
  server.start(0);  // ephemeral: no fixed-port collisions across tests
  ASSERT_TRUE(server.running());
  const std::uint16_t port = server.port();
  ASSERT_GT(port, 0);

  const auto response = get(port, "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: "), std::string::npos);
  EXPECT_NE(response.find("# TYPE"), std::string::npos);

  EXPECT_NE(get(port, "/nope").find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(http_request(port, "POST /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);

  // Malformed request lines are a typed 400, never a silent close: a
  // spaceless line and a newline-less blob both get an answer.
  EXPECT_NE(http_request(port, "garbage\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_request(port, "no newline at all").find("HTTP/1.1 400"),
            std::string::npos);

  // Every response says Connection: close (one request per connection).
  EXPECT_NE(get(port, "/metrics").find("Connection: close"),
            std::string::npos);
  EXPECT_NE(get(port, "/nope").find("Connection: close"),
            std::string::npos);

  // /healthz answers 200 or 503 depending on accumulated verdicts; either
  // way the body carries the tallies.
  const auto health = get(port, "/healthz");
  EXPECT_NE(health.find("\"passed\":"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());

  // Restartable after stop.
  server.start(0);
  EXPECT_TRUE(server.running());
  EXPECT_NE(get(server.port(), "/metrics.json").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
}

TEST(IntrospectionServer, ConcurrentRequestsAgainstLiveMetricTraffic) {
  // The TSan target: readers scrape while writers hammer the registry.
  auto& server = IntrospectionServer::instance();
  server.start(0);
  const std::uint16_t port = server.port();
  auto& counter = MetricsRegistry::instance().counter("test.introspect.hot");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) counter.add(1);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([port] {
      for (int i = 0; i < 5; ++i) {
        const auto response = get(port, "/metrics");
        EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  server.stop();
}

TEST(IntrospectionServer, StreamEndpointFollowsIngestorLifetime) {
  auto& server = IntrospectionServer::instance();
  {
    StreamIngestor ingestor(StreamConfig{.n_shards = 2, .queue_capacity = 0});
    TrafficLog log;
    log.tower_id = 1;
    log.start_minute = 100;
    log.end_minute = 110;
    log.bytes = 42;
    ingestor.offer(log);
    const auto response = server.handle("/stream");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.content_type, "application/json");
    EXPECT_NE(response.body.find("\"watermark_minute\":110"),
              std::string::npos);
    EXPECT_NE(response.body.find("\"shards\":["), std::string::npos);
  }
  // The destructor deregisters (and drains in-flight requests), so a
  // scrape after teardown is a clean 404, not a use-after-free.
  EXPECT_EQ(server.handle("/stream").status, 404);
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
