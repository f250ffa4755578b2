// cellscoped — the CellScope query daemon (DESIGN.md §11, README
// "Querying a live city" and "Watching a live run").
//
// Trains a model on a synthetic city, then runs two planes concurrently
// until SIGINT/SIGTERM:
//
//   * ingest plane: replays the city's calibrated trace (calibrated_feed:
//     generate_trace's daily shape with its default 2 % duplicate and
//     1 % conflicting records, put in arrival order once with a bounded
//     skew and a late tail) round after round, each round one 4-week grid
//     later in event time so the watermark keeps advancing — or one
//     out-of-core pass over a trace file (--trace). Every tower is
//     classified after each round or pass.
//   * serving plane: a QueryServer answering /towers/:id/class, /window,
//     /forecast, POST /classify, and /stats over the live windows, plus
//     the introspection endpoints (/metrics, /metrics.json, /healthz,
//     /stream).
//
// The model is republished after every ingest round — an epoch bump
// clients observe in every response's model_epoch — so the RCU swap path
// runs continuously under live traffic.
//
//   $ ./cellscoped --port=8080 --towers=200 &
//   $ curl -s localhost:8080/towers/7/class
//   $ curl -s localhost:8080/stats
//
// Flags (all optional):
//   --port=N          listen port on 127.0.0.1 (default 8080, 0 = ephemeral)
//   --workers=N       serving worker threads, at most 4096 (default 4)
//   --max-pending=N   admission-queue capacity, >= 1 (default 64)
//   --towers=N        synthetic city size, >= 20 (default 200)
//   --records=N       expected records per ingest round, >= 1
//                     (default 200000)
//   --rounds=N        ingest rounds, at most 106522 (the last whose minutes
//                     fit in 32 bits); 0 = until a signal or that round
//                     (default 0)
//   --batch=N         offer_batch size, >= 1 (default 8192)
//   --pause-ms=N      sleep between rounds (default 500)
//   --trace=PATH      ingest this trace file (.csv or .ctb/.bin) once
//                     instead of synthesizing (README "Full-scale ingest")
//   --checkpoint=PATH flush a final stream snapshot here on shutdown
//
// SIGINT/SIGTERM stop at the next round boundary, stop the server, drain
// the ingestor, flush the checkpoint, and let the run report write —
// never a torn snapshot. Progress lines are flushed as they are written,
// so a tail of a redirected log sees each round as it lands; a round's
// line counts that round's own late and dropped records.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/time_grid.h"
#include "core/cellscope.h"
#include "flag_util.h"
#include "mapred/thread_pool.h"
#include "obs/report.h"
#include "server/query_service.h"
#include "server/server.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"
#include "stream/replay.h"
#include "stream/snapshot.h"

using namespace cellscope;

namespace {

constexpr auto kGridMinutes =
    static_cast<std::uint32_t>(TimeGrid::kSlots * TimeGrid::kSlotMinutes);
/// Round r replays the trace (r - 1) grids later, and the trace's end
/// minutes reach kGridMinutes, so round r ends at r * kGridMinutes: this
/// is the last round whose minutes fit in a uint32 without wrapping.
constexpr std::uint64_t kMaxRounds = UINT32_MAX / kGridMinutes;

/// A signal handler may only touch lock-free state, so SIGINT/SIGTERM
/// only set this flag; the main loop polls it at round granularity and
/// runs the orderly exit path itself.
std::atomic<bool> g_stop{false};

bool stop_requested() { return g_stop.load(std::memory_order_acquire); }

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 8080;
  std::size_t workers = 4;
  std::size_t max_pending = 64;
  std::size_t n_towers = 200;
  std::size_t n_records = 200'000;
  std::size_t rounds = 0;  // run until a signal
  std::size_t batch = 8192;
  std::size_t pause_ms = 500;
  std::string trace_path;
  std::string checkpoint_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (auto v = examples::flag_u64(arg, "--port", 0, 65535))
      port = static_cast<std::uint16_t>(*v);
    else if (auto v = examples::flag_u64(arg, "--workers", 1, kMaxThreads))
      workers = *v;
    else if (auto v = examples::flag_u64(arg, "--max-pending", 1))
      max_pending = *v;
    else if (auto v = examples::flag_u64(arg, "--towers", 20, UINT32_MAX))
      n_towers = *v;
    else if (auto v = examples::flag_u64(arg, "--records", 1)) n_records = *v;
    else if (auto v = examples::flag_u64(arg, "--rounds", 0, kMaxRounds))
      rounds = *v;
    else if (auto v = examples::flag_u64(arg, "--batch", 1)) batch = *v;
    else if (auto v = examples::flag_u64(arg, "--pause-ms")) pause_ms = *v;
    else if (arg.starts_with("--trace="))
      trace_path = arg.substr(8);
    else if (arg.starts_with("--checkpoint="))
      checkpoint_path = arg.substr(13);
    else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  const auto on_signal = [](int) {
    g_stop.store(true, std::memory_order_release);
  };
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  obs::arm_run_report("cellscoped");  // no-op unless CELLSCOPE_RUN_REPORT

  std::cout << "training model on " << n_towers << " towers...\n";
  ExperimentConfig config;
  config.n_towers = n_towers;
  const Experiment experiment = Experiment::run(config);
  auto classifier =
      std::make_shared<const OnlineClassifier>(snapshot_model(experiment));

  ThreadPool pool(configured_thread_count());
  StreamIngestor ingestor(StreamConfig::from_env());

  server::QueryService service(ingestor, &pool);
  service.publish_model(classifier);

  server::ServerConfig server_config;
  server_config.port = port;
  server_config.workers = workers;
  server_config.max_pending = max_pending;
  server::QueryServer server(service, server_config);
  server.start();
  std::cout << "cellscoped serving on http://127.0.0.1:" << server.port()
            << "  (/towers/:id/class /towers/:id/window /towers/:id/forecast"
            << " POST /classify /stats /metrics /stream)" << std::endl;

  // Classify every tower, then republish the same frozen model: clients
  // see model_epoch advance while in-flight requests finish on the epoch
  // they loaded.
  const auto classify_and_publish = [&] {
    const std::size_t towers = classifier->classify_all(ingestor, &pool).size();
    service.publish_model(classifier);
    return towers;
  };

  if (!trace_path.empty()) {
    FileReplayOptions file_options;
    file_options.batch_size = batch;
    const ReplayStats stats =
        replay_trace_file(trace_path, ingestor, pool, file_options);
    const std::size_t classified = classify_and_publish();
    std::cout << trace_path << ": " << stats.records << " records in "
              << stats.wall_ms << " ms, late " << stats.ingest.late
              << ", dropped " << stats.ingest.dropped << ", classified "
              << classified << " towers; serving until a signal arrives"
              << std::endl;
  } else {
    ingestor.register_towers(experiment.towers());
    TraceResult feed = calibrated_feed(
        experiment.towers(), experiment.intensity(), config.seed, n_records);
    std::cout << "feed: " << feed.logs.size() << " records per round ("
              << n_records << " expected), " << feed.duplicates_injected
              << " duplicates, " << feed.conflicts_injected << " conflicts"
              << std::endl;
    ReplayOptions options;
    options.batch_size = batch;
    for (std::size_t round = 1;
         (rounds == 0 || round <= rounds) && !stop_requested(); ++round) {
      if (round > kMaxRounds) {
        std::cout << "round " << kMaxRounds
                  << " reached the end of the 32-bit minute range; feeding "
                     "stops, serving continues"
                  << std::endl;
        break;
      }
      // Each round replays the feed one grid later than the last, so event
      // time (and the watermark) advances monotonically across rounds.
      if (round > 1) {
        for (auto& log : feed.logs) {
          log.start_minute += kGridMinutes;
          log.end_minute += kGridMinutes;
        }
      }
      const IngestStats before = ingestor.stats();
      const ReplayStats stats =
          replay_trace(feed.logs, ingestor, pool, options);
      const std::size_t classified = classify_and_publish();
      const IngestStats& ingest = stats.ingest;
      std::cout << "round " << round << ": " << stats.records << " records ("
                << static_cast<std::uint64_t>(stats.records_per_sec)
                << " rec/s), watermark " << ingest.watermark_minute
                << ", late " << ingest.late - before.late << ", dropped "
                << ingest.dropped - before.dropped << ", classified "
                << classified << " towers, model epoch "
                << service.model_epoch() << std::endl;
      if (pause_ms > 0 && !stop_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
    }
  }
  // A finished feed still serves until a signal arrives.
  while (!stop_requested())
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::cout << "\nstop requested; shutting down...\n";
  server.stop();
  ingestor.drain(pool);
  if (!checkpoint_path.empty()) {
    const SnapshotInfo info = write_snapshot(checkpoint_path, ingestor);
    std::cout << "checkpoint " << checkpoint_path << ": " << info.towers
              << " towers, " << info.bins << " bins, " << info.bytes
              << " bytes\n";
  }
  std::cout << "final ingest view:\n" << ingestor.status_json() << "\n";
  return 0;
}
