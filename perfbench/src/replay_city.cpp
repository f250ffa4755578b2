// replay_city — an operator replays a month of connection logs into the
// live ingestor. Set-up trains a small model, deploys 2,400 towers,
// generates their calibrated session trace (diurnal and weekly shape, 2 %
// duplicates, 1 % conflicts), puts it in event-time arrival order with
// bounded skew and a small late tail, and writes it once as a .ctb file.
// The timed replay has three steps: replay_trace_file opens that file into
// a fresh StreamIngestor (mmap decode, bulk ingest_columns); a
// classify_all pass labels every tower; write_snapshot checkpoints.
// rate_per_s is records per second of the first step, result_s the time
// of all three. The 2,400 windows of 4032 slots (about 115 MB) are far
// larger than the caches; the batch ml code is idle.
//
// Classification runs once, after the replay, not on a cadence inside it:
// one pass over 2,400 towers costs about twice the decode and apply of the
// whole trace, so cadenced passes would turn the ingest rate into a
// classification rate.
//
// Checks, outside the timed region: folded_vectors() equals
// fold_to_week(zscore_rows(vectorize_logs(records))) bit for bit; every
// warm tower's label equals nearest_centroid over that row; read_snapshot
// into a fresh ingestor gives back the same export_windows().
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "city/deployment.h"
#include "core/experiment.h"
#include "mapred/thread_pool.h"
#include "pipeline/vectorizer.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"
#include "stream/replay.h"
#include "stream/snapshot.h"
#include "traffic/trace_codec.h"
#include "traffic/trace_generator.h"
#include "traffic/trace_mmap.h"

namespace perfbench {

namespace {

using namespace cellscope;

constexpr std::size_t kReplayTowers = 2400;
constexpr std::size_t kModelTowers = 400;
/// Mean bytes per session: sizes the trace at about 3 M records, which
/// keeps set-up (repeated kSetupReps times) within about five seconds.
constexpr double kSessionBytes = 1.4e6;
/// Arrival order: records drift up to this many positions from event-time
/// order, and this share arrives after everything else.
constexpr std::size_t kSkewWindow = 32;
constexpr double kLateFraction = 0.002;

struct Fixture {
  std::vector<Tower> towers;
  std::unique_ptr<OnlineClassifier> classifier;
  std::size_t records = 0;
  /// Folded z-scored week per tower (ascending id), from the batch chain.
  std::vector<std::vector<double>> oracle_folded;
};

/// Builds the model and trace and writes the trace to `ctb`; the batch
/// oracle rows are computed separately (not set-up) from the records.
Fixture build_fixture(std::uint64_t seed, const std::string& ctb,
                      std::vector<TrafficLog>* records_out) {
  Fixture fx;
  ExperimentConfig model_config;
  model_config.seed = seed;
  model_config.n_towers = kModelTowers;
  fx.classifier = std::make_unique<OnlineClassifier>(
      snapshot_model(Experiment::run(model_config)));

  const auto city = CityModel::create_default(seed ^ 0x5EEDC17EULL);
  DeploymentOptions deployment;
  deployment.n_towers = kReplayTowers;
  deployment.seed = seed ^ 0xDE910ULL;
  fx.towers = deploy_towers(city, deployment);
  IntensityOptions intensity;
  intensity.seed = seed ^ 0x1A7E5ULL;
  const auto model = IntensityModel::create(fx.towers, intensity);
  TraceOptions trace;
  trace.seed = seed ^ 0x7CA5EULL;
  trace.mean_session_bytes = kSessionBytes;
  ReplayOptions arrival;
  arrival.seed = seed ^ 0xA441FULL;
  arrival.skew_window = kSkewWindow;
  arrival.late_fraction = kLateFraction;
  auto records = perturb_arrival_order(
      generate_trace(fx.towers, model, trace).logs, arrival);
  write_trace(ctb, records, TraceCodec::kBinary);
  fx.records = records.size();
  if (records_out != nullptr) *records_out = std::move(records);
  return fx;
}

bool same_windows(const StreamIngestor& a, const StreamIngestor& b) {
  const auto wa = a.export_windows();
  const auto wb = b.export_windows();
  if (wa.size() != wb.size()) return false;
  for (std::size_t i = 0; i < wa.size(); ++i) {
    const auto& [ida, sa] = wa[i];
    const auto& [idb, sb] = wb[i];
    if (ida != idb || sa.sumsq != sb.sumsq || sa.bins.size() != sb.bins.size())
      return false;
    for (std::size_t j = 0; j < sa.bins.size(); ++j)
      if (sa.bins[j].slot != sb.bins[j].slot ||
          sa.bins[j].cycle != sb.bins[j].cycle ||
          sa.bins[j].bytes != sb.bins[j].bytes)
        return false;
  }
  return true;
}

using Labels = std::vector<std::pair<std::uint32_t, Classification>>;

/// The full output check of one replay (see the file comment).
void check_replay(const Fixture& fx, const StreamIngestor& ingestor,
                  const Labels& labels, const std::string& snap,
                  ThreadPool& pool, Outcome& out) {
  const auto folded = ingestor.folded_vectors(&pool);
  bool folded_equal = folded.size() == fx.oracle_folded.size();
  for (std::size_t i = 0; folded_equal && i < folded.size(); ++i)
    folded_equal = folded[i].first == i && folded[i].second == fx.oracle_folded[i];
  out.check(folded_equal,
            "replay_city: folded_vectors differ from the batch chain");

  bool labels_equal = labels.size() == fx.oracle_folded.size();
  for (std::size_t i = 0; labels_equal && i < labels.size(); ++i) {
    const auto& c = labels[i].second;
    if (c.cold_start) continue;
    double distance = 0.0;
    const std::size_t nearest =
        fx.classifier->nearest_centroid(fx.oracle_folded[i], &distance);
    labels_equal = labels[i].first == i && c.cluster == nearest &&
                   c.distance == distance;
  }
  out.check(labels_equal,
            "replay_city: classify_all differs from nearest_centroid");

  StreamIngestor restored(StreamConfig{.n_shards = kStreamShards + 1});
  read_snapshot(snap, restored);
  out.check(same_windows(ingestor, restored),
            "replay_city: read_snapshot does not restore export_windows()");
}

}  // namespace

void run_replay_city(const Args& args, Outcome& out, SpanRecorder* rec) {
  const std::string stem =
      args.out_dir + "/replay-" + std::to_string(args.seed);
  const std::string ctb = stem + ".ctb";
  const std::string snap = stem + ".snap";

  Fixture fx;
  std::vector<TrafficLog> records;
  const double setup_s = timed_setup(kSetupReps, [&] {
    fx = build_fixture(args.seed, ctb, &records);
  });
  ThreadPool pool(configured_thread_count());
  fx.oracle_folded = fold_to_week(
      zscore_rows(vectorize_logs(records, fx.towers, pool), &pool), &pool);
  records = {};
  reset_peak_rss();

  FileReplayOptions options;
  options.codec = TraceCodec::kMmap;
  options.bulk = true;
  const StreamConfig stream_config{.n_shards = kStreamShards};

  std::vector<double> replay_s;
  std::vector<double> ingest_rate;
  IngestStats ingest;
  const auto t_begin = Clock::now();
  // Traced runs make two untraced replays; the second, warm like the
  // traced one, is the overhead baseline.
  for (;;) {
    StreamIngestor ingestor(stream_config);
    const auto t0 = Clock::now();
    ingestor.register_towers(fx.towers);
    const auto stats = replay_trace_file(ctb, ingestor, pool, options);
    const auto t1 = Clock::now();
    const auto labels = fx.classifier->classify_all(ingestor, &pool);
    write_snapshot(snap, ingestor);
    const auto t2 = Clock::now();
    replay_s.push_back(seconds_between(t0, t2));
    ingest_rate.push_back(static_cast<double>(stats.records) /
                          seconds_between(t0, t1));
    ingest = stats.ingest;
    out.attempted += stats.records;
    out.failed += stats.ingest.dropped;
    out.check(stats.records == fx.records && stats.ingest.dropped == 0,
              "replay_city: not every record was applied");
    const bool done = rec != nullptr ? replay_s.size() == 2
                                     : seconds_since(t_begin) >= args.seconds;
    if (!done) continue;
    if (rec == nullptr) check_replay(fx, ingestor, labels, snap, pool, out);
    break;
  }

  const double result_s = median(replay_s);
  const double rate = median(ingest_rate);
  out.note("setup_s", setup_s, "s");
  out.note("records", static_cast<double>(fx.records), "count");
  out.note("replay_s", result_s, "s");
  out.note("ingest_rec_per_s", rate, "1/s");
  out.note("late", static_cast<double>(ingest.late), "count");
  out.note("stale", static_cast<double>(ingest.stale), "count");
  out.note("fail_ratio",
           static_cast<double>(out.failed) / static_cast<double>(out.attempted),
           "ratio");
  out.note("peak_rss_mb", peak_rss_mb(), "MB");
  if (rec == nullptr) {
    out.set("setup_s", setup_s, "s");
    out.set("result_s", result_s, "s");
    out.set("rate_per_s", rate, "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::filesystem::remove(ctb);
    std::filesystem::remove(snap);
    return;
  }

  // Traced replay: replay_trace_file's columnar path, driven from here so
  // the decode, apply and classify calls each get a span.
  StreamIngestor ingestor(stream_config);
  Labels labels;
  std::size_t applied = 0;
  std::size_t chunks = 0;
  std::uint64_t mapped = 0;
  SnapshotInfo info;
  {
    ScopedSpan root(rec, "replay");
    {
      ScopedSpan span(rec, "stream.window_create");
      ingestor.register_towers(fx.towers);
    }
    std::optional<MmapTraceReader> reader;
    {
      ScopedSpan span(rec, "traffic.decode");
      reader.emplace(ctb);
    }
    DecodedColumns cols;
    for (std::size_t i = 0; i < reader->chunk_count(); ++i) {
      bool ok = false;
      {
        ScopedSpan span(rec, "traffic.decode");
        ok = reader->read_chunk_columns(i, cols);
      }
      if (!ok) continue;
      ScopedSpan span(rec, "stream.apply");
      applied += ingestor.ingest_columns(cols);
      ++chunks;
    }
    {
      ScopedSpan span(rec, "stream.classify_all");
      labels = fx.classifier->classify_all(ingestor, &pool);
    }
    mapped = reader->bytes_mapped();
    reader.reset();
    ScopedSpan span(rec, "stream.snapshot_write");
    info = write_snapshot(snap, ingestor);
  }
  out.check(applied == fx.records, "replay_city: traced replay lost records");
  check_replay(fx, ingestor, labels, snap, pool, out);
  std::size_t cold = 0;
  for (const auto& [id, c] : labels) cold += c.cold_start ? 1 : 0;
  const auto stats = ingestor.stats();

  for (const char* layer : {"traffic.decode", "stream.window_create",
                            "stream.apply", "stream.classify_all",
                            "stream.snapshot_write"})
    out.set(std::string(layer) + "_ms", rec->total_ms(layer), "ms");
  out.set("traffic.chunks_read", static_cast<double>(chunks), "count");
  out.set("traffic.bytes_mapped", static_cast<double>(mapped), "bytes");
  out.set("stream.records_applied", static_cast<double>(applied), "count");
  out.set("stream.late", static_cast<double>(stats.late), "count");
  out.set("stream.stale", static_cast<double>(stats.stale), "count");
  out.set("stream.dropped", static_cast<double>(stats.dropped), "count");
  out.set("stream.cold_starts", static_cast<double>(cold), "count");
  out.set("stream.snapshot_bytes", static_cast<double>(info.bytes), "bytes");
  const double untraced_ms = replay_s.back() * 1e3;
  out.set("trace.overhead_share",
          (rec->total_ms("replay") - untraced_ms) / untraced_ms, "ratio");
  out.set("trace.uncovered_share", rec->uncovered_share("replay"), "ratio");
  std::filesystem::remove(ctb);
  std::filesystem::remove(snap);
}

}  // namespace perfbench
