// The introspection endpoints over real sockets: a QueryServer on an
// ephemeral port serves /metrics, /metrics.json, /healthz and its
// ingestor's /stream through the one HTTP stack, answers malformed and half-closed requests with a typed
// 400, and stays race-free while scrapes overlap live metric traffic —
// the `-L server` TSan target scripts/check_server.sh runs.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "server/query_service.h"
#include "server/server.h"
#include "stream/ingestor.h"

namespace cellscope::server {
namespace {

/// Sends `request` verbatim on a fresh loopback connection, half-closes
/// the write side, and returns everything the server sent until it
/// closed (head + body; empty when it closed without a reply).
std::string raw_exchange(std::uint16_t port, const std::string& request) {
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
  // After the half-close the server sees EOF once it has read the
  // request, so every exchange ends with the server closing.
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
  return raw_exchange(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// A daemon with no published model: the introspection endpoints need
/// none.
class QueryServerIntrospection : public ::testing::Test {
 protected:
  void SetUp() override { server_.start(); }

  ThreadPool pool_{1};
  StreamIngestor ingestor_{StreamConfig{.n_shards = 2, .queue_capacity = 0}};
  QueryService service_{ingestor_, &pool_};
  QueryServer server_{service_};
};

TEST_F(QueryServerIntrospection, ServesRealSocketsOnEphemeralPort) {
  obs::MetricsRegistry::instance().counter("test.introspect.socket").add(1);
  const std::uint16_t port = server_.port();
  ASSERT_GT(port, 0);

  const auto metrics = get(port, "/metrics");
  EXPECT_TRUE(contains(metrics, "HTTP/1.1 200 OK")) << metrics;
  EXPECT_TRUE(contains(metrics, "Content-Length: "));
  EXPECT_TRUE(contains(metrics, "# TYPE"));
  EXPECT_TRUE(contains(metrics, "test_introspect_socket"));

  const auto json = get(port, "/metrics.json");
  EXPECT_TRUE(contains(json, "HTTP/1.1 200 OK")) << json;
  EXPECT_TRUE(contains(json, "\"counters\":"));

  // /healthz answers 200 or 503 depending on accumulated verdicts; either
  // way the body carries the tallies.
  EXPECT_TRUE(contains(get(port, "/healthz"), "\"passed\":"));

  // /stream reports the ingestor behind the service.
  TrafficLog log;
  log.tower_id = 3;
  log.start_minute = 200;
  log.end_minute = 210;
  log.bytes = 42;
  ingestor_.offer(log);
  const auto stream = get(port, "/stream");
  EXPECT_TRUE(contains(stream, "HTTP/1.1 200 OK")) << stream;
  EXPECT_TRUE(contains(stream, "\"shards\":["));
  EXPECT_TRUE(contains(stream, "\"watermark_minute\":210"));

  EXPECT_TRUE(contains(get(port, "/nope"), "HTTP/1.1 404"));
  EXPECT_TRUE(contains(raw_exchange(port, "POST /metrics HTTP/1.1\r\n\r\n"),
                       "HTTP/1.1 405"));

  // A spaceless request line is a typed 400 that closes the connection.
  const auto garbage = raw_exchange(port, "garbage\r\n\r\n");
  EXPECT_TRUE(contains(garbage, "HTTP/1.1 400")) << garbage;
  EXPECT_TRUE(contains(garbage, "Connection: close"));
}

TEST_F(QueryServerIntrospection, HalfClosedPartialRequestGetsTyped400) {
  auto& bad = *ServerMetrics::instance().bad_requests;
  const std::uint64_t before = bad.value();

  // The client sends part of a head and then half-closes: no byte can
  // complete it, so the server must say why instead of closing silently.
  for (const std::string partial :
       {"no newline at all", "GET /metrics HTTP/1.1\r\nHost: x"}) {
    const auto response = raw_exchange(server_.port(), partial);
    EXPECT_TRUE(contains(response, "HTTP/1.1 400")) << "'" << partial << "'";
    EXPECT_TRUE(contains(response, "Connection: close"));
  }
  EXPECT_EQ(bad.value(), before + 2);

  // A hangup before any byte has nothing to answer: a silent close, and
  // nothing counted.
  EXPECT_EQ(raw_exchange(server_.port(), ""), "");
  EXPECT_EQ(bad.value(), before + 2);
}

TEST_F(QueryServerIntrospection, ConcurrentRequestsAgainstLiveMetricTraffic) {
  // The TSan target: readers scrape while a writer hammers the registry.
  const std::uint16_t port = server_.port();
  auto& counter =
      obs::MetricsRegistry::instance().counter("test.introspect.hot");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) counter.add(1);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([port] {
      for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(contains(get(port, "/metrics"), "HTTP/1.1 200"));
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace cellscope::server
