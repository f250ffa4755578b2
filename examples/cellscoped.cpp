// cellscoped — the CellScope query daemon (DESIGN.md §11, README
// "Querying a live city").
//
// Trains a model on a synthetic city (or the city implied by a replayed
// trace), then runs two planes concurrently until SIGINT/SIGTERM:
//
//   * ingest plane: feeds the StreamIngestor round after round (synthetic
//     feed) or one out-of-core pass (--trace), advancing event time;
//   * serving plane: a QueryServer answering /towers/:id/class, /window,
//     /forecast, POST /classify, and /stats over the live windows, plus
//     the introspection endpoints (/metrics, /healthz, /stream).
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
//   --workers=N       serving worker threads (default 4)
//   --max-pending=N   admission-queue capacity, >= 1 (default 64)
//   --towers=N        synthetic city size, >= 20 (default 200)
//   --records=N       records per ingest round (default 200000)
//   --rounds=N        ingest rounds; 0 = run until a signal (default 0)
//   --batch=N         offer_batch size, >= 1 (default 8192)
//   --pause-ms=N      sleep between rounds (default 500)
//   --trace=PATH      ingest this trace file once instead of synthesizing
//   --checkpoint=PATH flush a final stream snapshot here on shutdown
//
// SIGINT/SIGTERM stop at the next round boundary, stop the server, drain
// the ingestor, flush the checkpoint, and let the run report write —
// never a torn snapshot.
#include <chrono>
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
#include "signal_util.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"
#include "stream/replay.h"
#include "stream/snapshot.h"

using namespace cellscope;

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
    else if (auto v = examples::flag_u64(arg, "--workers", 1)) workers = *v;
    else if (auto v = examples::flag_u64(arg, "--max-pending", 1))
      max_pending = *v;
    else if (auto v = examples::flag_u64(arg, "--towers", 20, UINT32_MAX))
      n_towers = *v;
    else if (auto v = examples::flag_u64(arg, "--records")) n_records = *v;
    else if (auto v = examples::flag_u64(arg, "--rounds")) rounds = *v;
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

  examples::install_stop_handlers();
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
            << " POST /classify /stats /metrics /stream)\n";

  ReplayOptions options;
  options.batch_size = batch;

  if (!trace_path.empty()) {
    FileReplayOptions file_options;
    file_options.batch_size = batch;
    const ReplayStats stats = replay_trace_file(trace_path, ingestor, pool,
                                                file_options,
                                                classifier.get());
    service.publish_model(classifier);
    std::cout << trace_path << ": " << stats.records << " records in "
              << stats.wall_ms << " ms; serving until a signal arrives\n";
    while (!examples::stop_requested())
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
  } else {
    const auto base_logs = uniform_feed(
        n_records, static_cast<std::uint32_t>(n_towers), 4321);
    constexpr std::uint64_t kGridMinutes =
        TimeGrid::kSlots * TimeGrid::kSlotMinutes;
    for (std::size_t round = 0;
         (rounds == 0 || round < rounds) && !examples::stop_requested();
         ++round) {
      std::vector<TrafficLog> logs = base_logs;
      const auto shift = static_cast<std::uint32_t>(round * kGridMinutes);
      for (auto& log : logs) {
        log.start_minute += shift;
        log.end_minute += shift;
      }
      options.seed = 99 + round;
      const ReplayStats stats =
          replay_trace(logs, ingestor, pool, options, classifier.get());
      // Same frozen model, new epoch: clients see model_epoch advance
      // while in-flight requests finish on the epoch they loaded.
      service.publish_model(classifier);
      const IngestStats ingest = stats.ingest;
      std::cout << "round " << round + 1 << ": " << stats.records
                << " records ("
                << static_cast<std::uint64_t>(stats.records_per_sec)
                << " rec/s), watermark " << ingest.watermark_minute
                << ", model epoch " << service.model_epoch() << "\n";
      if (pause_ms > 0 && !examples::stop_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
    }
    // Flag-free completion of a bounded run still serves until a signal.
    while (!examples::stop_requested())
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

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
