// Stream replay — the offline harness for the streaming ingestor.
//
// Trains a model on a synthetic city, then replays the uniform feed
// (traffic/trace_generator.h) through the streaming ingestor round after
// round, each round one 4-week grid further along in event time so the
// watermark keeps advancing — or replays a trace file once (--trace).
// It serves no HTTP: scrape a run with --metrics-jsonl, sample records
// into the Chrome trace with CELLSCOPE_TRACE_SAMPLE, and curl a live
// process through cellscoped instead (README "Watching a live run").
//
//   $ ./stream_replay --metrics-interval-ms=500 --metrics-jsonl=m.jsonl
//
// Flags (all optional):
//   --towers=N              city size, >= 20 (default 400)
//   --records=N             records per round (default 1000000)
//   --rounds=N              replay rounds (default 4)
//   --batch=N               offer_batch size, >= 1 (default 8192)
//   --skew=N                arrival-order reorder radius (default 64)
//   --late=F                late-tail fraction in [0,1] (default 0.01)
//   --classify-every=N      classify pass cadence in batches (default 16)
//   --pause-ms=N            sleep between rounds (default 500)
//   --metrics-interval-ms=N periodic metrics scrape cadence (default off)
//   --metrics-jsonl=PATH    scrape destination (JSONL, appended)
//   --trace=PATH            replay this trace file (.csv or .ctb/.bin)
//                           instead of a synthetic feed; one pass,
//                           out-of-core (README "Full-scale ingest")
//   --offer                 with --trace on a columnar file: go through
//                           offer_batch/drain instead of the fused bulk
//                           ingest path
//   --checkpoint=PATH       flush a final stream snapshot here on exit —
//                           including a SIGINT/SIGTERM exit, which stops
//                           at the next round boundary instead of dying
//                           mid-write
#include <chrono>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/time_grid.h"
#include "core/cellscope.h"
#include "flag_util.h"
#include "mapred/thread_pool.h"
#include "obs/report.h"
#include "signal_util.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"
#include "stream/replay.h"
#include "stream/snapshot.h"

namespace {

using namespace cellscope;

/// The SIGINT/SIGTERM (and normal-exit) epilogue: drain what's pending,
/// flush the checkpoint if one was requested, and let the armed run
/// report write on exit — never die mid-write.
void finish_run(const std::string& checkpoint_path, StreamIngestor& ingestor,
                ThreadPool& pool, bool interrupted) {
  if (interrupted) std::cout << "\nstop requested; flushing...\n";
  ingestor.drain(pool);
  if (!checkpoint_path.empty()) {
    const SnapshotInfo info = write_snapshot(checkpoint_path, ingestor);
    std::cout << "checkpoint " << checkpoint_path << ": " << info.towers
              << " towers, " << info.bins << " bins, " << info.bytes
              << " bytes\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_towers = 400;
  std::size_t n_records = 1'000'000;
  std::size_t rounds = 4;
  std::size_t pause_ms = 500;
  std::string trace_path;
  std::string checkpoint_path;
  bool bulk = true;
  ReplayOptions options;
  options.skew_window = 64;
  options.late_fraction = 0.01;
  options.classify_every_batches = 16;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (auto v = examples::flag_u64(arg, "--towers", 20, UINT32_MAX))
      n_towers = *v;
    else if (auto v = examples::flag_u64(arg, "--records")) n_records = *v;
    else if (auto v = examples::flag_u64(arg, "--rounds")) rounds = *v;
    else if (auto v = examples::flag_u64(arg, "--batch", 1))
      options.batch_size = *v;
    else if (auto v = examples::flag_u64(arg, "--skew"))
      options.skew_window = *v;
    else if (auto v = examples::flag_u64(arg, "--classify-every"))
      options.classify_every_batches = *v;
    else if (auto v = examples::flag_u64(arg, "--pause-ms")) pause_ms = *v;
    else if (auto v = examples::flag_u64(arg, "--metrics-interval-ms", 0,
                                         UINT32_MAX))
      options.metrics_interval_ms = static_cast<std::uint32_t>(*v);
    else if (auto v = examples::flag_f64(arg, "--late", 0.0, 1.0))
      options.late_fraction = *v;
    else if (arg.starts_with("--metrics-jsonl="))
      options.metrics_jsonl_path = arg.substr(16);
    else if (arg.starts_with("--trace="))
      trace_path = arg.substr(8);
    else if (arg.starts_with("--checkpoint="))
      checkpoint_path = arg.substr(13);
    else if (arg == "--offer")
      bulk = false;
    else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  examples::install_stop_handlers();
  obs::arm_run_report("stream_replay");  // no-op unless CELLSCOPE_RUN_REPORT

  std::cout << "training model on " << n_towers << " towers...\n";
  ExperimentConfig config;
  config.n_towers = n_towers;
  const Experiment experiment = Experiment::run(config);
  const OnlineClassifier classifier(snapshot_model(experiment));

  ThreadPool pool(configured_thread_count());
  StreamIngestor ingestor(StreamConfig::from_env());

  if (!trace_path.empty()) {
    // File replay: one out-of-core pass through the codec layer; the
    // whole trace never materializes in memory.
    FileReplayOptions file_options;
    file_options.bulk = bulk;
    file_options.batch_size = options.batch_size;
    file_options.classify_every_batches = options.classify_every_batches;
    const ReplayStats stats = replay_trace_file(trace_path, ingestor, pool,
                                                file_options, &classifier);
    const IngestStats ingest = stats.ingest;
    std::cout << trace_path << ": " << stats.records << " records in "
              << stats.wall_ms << " ms ("
              << static_cast<std::uint64_t>(stats.records_per_sec)
              << " rec/s, " << (bulk ? "bulk" : "offer")
              << " path), watermark " << ingest.watermark_minute << " (low "
              << ingest.low_watermark_minute << "), late " << ingest.late
              << ", dropped " << ingest.dropped << ", classify passes "
              << stats.classify_passes << "\n";
    std::cout << "final shard view:\n" << ingestor.status_json() << "\n";
    finish_run(checkpoint_path, ingestor, pool, examples::stop_requested());
    return 0;
  }

  const auto base_logs =
      uniform_feed(n_records, static_cast<std::uint32_t>(n_towers), 4321);
  constexpr std::uint64_t kGridMinutes =
      TimeGrid::kSlots * TimeGrid::kSlotMinutes;

  for (std::size_t round = 0;
       round < rounds && !examples::stop_requested(); ++round) {
    // Each round replays the same feed one full grid later, so event time
    // (and the watermark) advances monotonically across rounds.
    std::vector<TrafficLog> logs = base_logs;
    const auto shift =
        static_cast<std::uint32_t>(round * kGridMinutes);
    for (auto& log : logs) {
      log.start_minute += shift;
      log.end_minute += shift;
    }
    options.seed = 99 + round;
    logs = perturb_arrival_order(std::move(logs), options);
    const ReplayStats stats =
        replay_trace(logs, ingestor, pool, options, &classifier);
    const IngestStats ingest = stats.ingest;
    std::cout << "round " << round + 1 << "/" << rounds << ": "
              << stats.records << " records in " << stats.wall_ms << " ms ("
              << static_cast<std::uint64_t>(stats.records_per_sec)
              << " rec/s), watermark " << ingest.watermark_minute
              << " (low " << ingest.low_watermark_minute << "), late "
              << ingest.late << ", dropped " << ingest.dropped
              << ", classify passes " << stats.classify_passes << "\n";
    if (pause_ms > 0 && round + 1 < rounds)
      std::this_thread::sleep_for(std::chrono::milliseconds(pause_ms));
  }

  std::cout << "done; final shard view:\n" << ingestor.status_json() << "\n";
  finish_run(checkpoint_path, ingestor, pool, examples::stop_requested());
  return 0;
}
