// The query daemon under concurrent load — the `-L server` TSan targets:
// many client threads against a live-ingesting daemon (final responses
// pinned bit-identical to the batch classifier), the RCU model swap
// racing in-flight classify_all, TowerWindow reads racing the fused bulk
// ingest path, keep-alive pipelining, and the deterministic 503/429
// admission-control drill.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/query_service.h"
#include "server/server.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"
#include "stream/tower_window.h"
#include "traffic/columnar.h"

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

std::vector<TrafficLog> tower_logs(std::uint32_t tower_id,
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
  return logs;
}

TEST(QueryServerConfig, RejectsMoreWorkersThanThreadsAllowed) {
  // Construction only: start() would spawn the workers.
  ThreadPool pool(1);
  StreamIngestor ingestor;
  QueryService service(ingestor, &pool);
  const auto with_workers = [](std::size_t workers) {
    ServerConfig config;
    config.workers = workers;
    return config;
  };
  EXPECT_THROW(QueryServer(service, with_workers(4097)), InvalidArgument);
  EXPECT_THROW(QueryServer(service, with_workers(0)), Error);
  EXPECT_NO_THROW(QueryServer(service, with_workers(4096)));
}

// The acceptance pin of ISSUE 9: ≥8 client threads hammer a daemon whose
// ingestor is being fed and whose model is being republished the whole
// time; every in-flight answer must be a well-formed success, and once
// ingest quiesces, the served classifications must equal the batch
// OnlineClassifier on the same windows bit for bit.
TEST(QueryServerConcurrent, EightClientsAgainstLiveIngestBitIdenticalAtRest) {
  constexpr std::uint32_t kTowers = 12;
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequestsPerClient = 40;

  ThreadPool pool(2);
  StreamConfig stream_config;
  stream_config.queue_capacity = 0;  // unbounded: this test must not drop
  StreamIngestor ingestor(stream_config);
  QueryService service(ingestor, &pool);
  auto model = std::make_shared<const OnlineClassifier>(synthetic_model());
  service.publish_model(model);

  ServerConfig server_config;
  server_config.workers = 4;
  server_config.max_pending = 256;  // roomy: no shedding in this test
  QueryServer server(service, server_config);
  server.start();

  // Ingest plane: every tower gains slots batch by batch while clients
  // read; even towers office-shaped, odd towers resident-shaped.
  std::atomic<bool> ingest_done{false};
  std::thread ingest([&] {
    for (std::size_t round = 0; round < 6; ++round) {
      for (std::uint32_t tower = 0; tower < kTowers; ++tower) {
        const auto profile =
            tower % 2 == 0 ? office_bytes : resident_bytes;
        auto logs = tower_logs(tower, profile, kDay * (round + 1));
        ingestor.offer_batch(logs);
      }
      ingestor.drain(pool);
      // New epoch mid-flight: readers must never block or crash on it.
      service.publish_model(
          std::make_shared<const OnlineClassifier>(synthetic_model()));
    }
    ingest_done.store(true, std::memory_order_release);
  });

  std::atomic<std::size_t> well_formed{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      BlockingHttpClient client(server.port());
      const std::uint32_t tower = static_cast<std::uint32_t>(c % kTowers);
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        ClientResponse response;
        switch (i % 4) {
          case 0:
            response = client.get("/towers/" + std::to_string(tower) +
                                  "/class");
            break;
          case 1:
            response = client.get("/towers/" + std::to_string(tower) +
                                  "/window");
            break;
          case 2:
            response = client.get("/stats");
            break;
          default:
            response = client.get("/towers/" + std::to_string(tower) +
                                  "/forecast?horizon=36");
            break;
        }
        // Mid-ingest a tower may not exist yet (404) or be too short to
        // forecast (409); anything else must be a 200 with a JSON body.
        ASSERT_TRUE(response.status == 200 || response.status == 404 ||
                    response.status == 409)
            << response.status << " " << response.body;
        if (response.status == 200) {
          ASSERT_FALSE(response.body.empty());
          ASSERT_EQ(response.body.front(), '{');
          well_formed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  ingest.join();
  ASSERT_TRUE(ingest_done.load());
  EXPECT_GT(well_formed.load(), kClients * kRequestsPerClient / 2);

  // Quiesced: pin every served classification bit-identical to the batch
  // classifier on the same windows, under the final epoch's model.
  const auto final_model =
      std::make_shared<const OnlineClassifier>(synthetic_model());
  service.publish_model(final_model);
  BlockingHttpClient client(server.port());
  for (std::uint32_t tower = 0; tower < kTowers; ++tower) {
    const auto response =
        client.get("/towers/" + std::to_string(tower) + "/class");
    ASSERT_EQ(response.status, 200) << response.body;
    const JsonValue doc = JsonValue::parse(response.body);
    const JsonValue& body = doc.at("classification");
    const Classification expected =
        final_model->classify(ingestor.window_copy(tower));
    EXPECT_EQ(static_cast<std::size_t>(body.at("cluster").as_number()),
              expected.cluster)
        << "tower " << tower;
    EXPECT_EQ(body.at("region").as_string(), region_name(expected.region));
    EXPECT_EQ(body.at("distance").as_number(), expected.distance)
        << "tower " << tower;
    EXPECT_EQ(body.at("confidence").as_number(), expected.confidence)
        << "tower " << tower;
    EXPECT_EQ(body.at("cold_start").as_bool(), expected.cold_start);
  }
  server.stop();
}

// RCU publication protocol: swapping the model must never block — or be
// corrupted by — in-flight classify_all passes holding the old epoch.
TEST(QueryServerConcurrent, ModelSwapRacesInFlightClassifyAll) {
  ThreadPool pool(2);
  StreamIngestor ingestor;
  for (std::uint32_t tower = 0; tower < 8; ++tower)
    ingestor.offer_batch(tower_logs(tower, office_bytes, 3 * kDay));
  ingestor.drain(pool);

  QueryService service(ingestor, &pool);
  service.publish_model(
      std::make_shared<const OnlineClassifier>(synthetic_model()));

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (std::size_t i = 0; i < 50; ++i)
      service.publish_model(
          std::make_shared<const OnlineClassifier>(synthetic_model()));
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // Each pass pins one epoch for its whole duration.
        const auto model = service.model();
        const auto labels = model->classify_all(ingestor);
        ASSERT_EQ(labels.size(), 8u);
        for (const auto& [tower, result] : labels)
          ASSERT_LT(result.cluster, model->model().centroids.size());
      }
    });
  }
  publisher.join();
  for (auto& reader : readers) reader.join();
  EXPECT_GE(service.model_epoch(), 51u);
}

// Lock discipline of the serving plane's cheap reads: window_stats and
// window_copy racing the fused bulk ingest path must stay TSan-clean and
// internally consistent.
TEST(QueryServerConcurrent, WindowReadsRaceIngestColumns) {
  StreamIngestor ingestor;
  // Seed every tower so readers always find a window.
  DecodedColumns seed;
  for (std::uint32_t tower = 0; tower < 6; ++tower) {
    seed.tower.push_back(tower);
    seed.start.push_back(0);
    seed.end.push_back(0);
    seed.bytes.push_back(1000);
  }
  ingestor.ingest_columns(seed);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint32_t round = 1; round <= 200; ++round) {
      DecodedColumns cols;
      for (std::uint32_t tower = 0; tower < 6; ++tower) {
        cols.tower.push_back(tower);
        const std::uint32_t minute =
            (round % TimeGrid::kSlots) * TimeGrid::kSlotMinutes;
        cols.start.push_back(minute);
        cols.end.push_back(minute);
        cols.bytes.push_back(500 + round);
      }
      ingestor.ingest_columns(cols);
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (std::uint32_t tower = 0; tower < 6; ++tower) {
          const TowerWindowStats stats = ingestor.window_stats(tower);
          ASSERT_GE(stats.observed_slots, 1u);
          ASSERT_GT(stats.total_bytes, 0u);
          const TowerWindow window = ingestor.window_copy(tower);
          ASSERT_EQ(window.observed_slots() >= 1, true);
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
}

// One connection, one write, many requests: HTTP/1.1 pipelining through
// get_burst answers all of them in order.
TEST(QueryServerConcurrent, KeepAlivePipelining) {
  ThreadPool pool(2);
  StreamIngestor ingestor;
  ingestor.offer_batch(tower_logs(1, office_bytes, kDay));
  ingestor.drain(pool);
  QueryService service(ingestor, &pool);
  QueryServer server(service);
  server.start();

  BlockingHttpClient client(server.port());
  const auto burst = client.get_burst("/towers/1/window", 64);
  ASSERT_EQ(burst.size(), 64u);
  for (const auto& response : burst) {
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"observed_slots\""), std::string::npos);
  }
  server.stop();
}

// Admission-control drill, deterministic without failpoints: one worker,
// a one-slot admission queue. Connection A occupies the worker, B fills
// the queue, C is shed at accept with 503; A's next request is answered
// 429 + close (the queue is still full); B then gets its 200.
TEST(QueryServerConcurrent, SaturationSheds503AtAcceptAnd429InBand) {
  ThreadPool pool(2);
  StreamIngestor ingestor;
  ingestor.offer_batch(tower_logs(1, office_bytes, kDay));
  ingestor.drain(pool);
  QueryService service(ingestor, &pool);

  ServerConfig config;
  config.workers = 1;
  config.max_pending = 1;
  QueryServer server(service, config);
  server.start();
  const auto& metrics = ServerMetrics::instance();
  const std::uint64_t shed_503_before = metrics.shed_503->value();
  const std::uint64_t shed_429_before = metrics.shed_429->value();

  // A connects and stays silent: the worker pops it and parks in recv.
  BlockingHttpClient a(server.port());
  a.get_burst("/stats", 0);  // zero-length burst = connect without sending
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // B connects and asks: admitted, but stuck in the queue (depth 1 = the
  // whole capacity) behind the parked worker.
  BlockingHttpClient b(server.port());
  ClientResponse b_response;
  std::thread b_request([&] { b_response = b.get("/towers/1/window"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // C: the queue already holds B -> connection-level shed, typed 503.
  // (The reply can race C's send; a torn connection counts as shed too.)
  BlockingHttpClient c(server.port());
  int c_status = 503;
  try {
    c_status = c.get("/whatever").status;
  } catch (const IoError&) {
  }
  EXPECT_EQ(c_status, 503);

  // A finally speaks: the queue is still full, so the in-band shed fires.
  const auto a_response = a.get("/towers/1/window");
  EXPECT_EQ(a_response.status, 429);

  // A's close frees the worker; B's queued connection now gets its 200.
  b_request.join();
  EXPECT_EQ(b_response.status, 200);

  EXPECT_GT(metrics.shed_503->value(), shed_503_before);
  EXPECT_GT(metrics.shed_429->value(), shed_429_before);
  server.stop();
}

}  // namespace
}  // namespace cellscope::server
