#include "stream/replay.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "obs/timer.h"

namespace cellscope {

std::vector<TrafficLog> perturb_arrival_order(std::vector<TrafficLog> logs,
                                              const ReplayOptions& options) {
  CS_CHECK_MSG(options.late_fraction >= 0.0 && options.late_fraction <= 1.0,
               "late_fraction must lie in [0, 1]");
  // Canonical arrival order: by start time, ties broken on the full
  // record so the perturbation is independent of the input permutation.
  std::sort(logs.begin(), logs.end(), [](const TrafficLog& a,
                                         const TrafficLog& b) {
    if (a.start_minute != b.start_minute) return a.start_minute < b.start_minute;
    if (a.tower_id != b.tower_id) return a.tower_id < b.tower_id;
    if (a.user_id != b.user_id) return a.user_id < b.user_id;
    if (a.end_minute != b.end_minute) return a.end_minute < b.end_minute;
    return a.bytes < b.bytes;
  });

  // Bounded jitter: record i arrives in (i + U{0..w}, i) order. Key k is
  // complete once record k is read (later records have larger keys), so
  // a ring of w + 1 buckets holds the records still waiting, each bucket
  // in read order. A record leaves its slot once and arrives in a slot
  // already read.
  const std::size_t w = std::min(options.skew_window, logs.size());
  Rng jitter(options.seed);
  Rng lateness = jitter.fork();
  std::vector<std::vector<TrafficLog>> ring(w + 1);
  std::vector<TrafficLog> late;
  std::size_t placed = 0;
  const auto arrive = [&](std::vector<TrafficLog>& bucket) {
    for (auto& log : bucket) {
      if (options.late_fraction > 0.0 &&
          lateness.uniform() < options.late_fraction)
        late.push_back(std::move(log));
      else
        logs[placed++] = std::move(log);
    }
    bucket.clear();
  };
  for (std::size_t i = 0; i < logs.size(); ++i) {
    const std::size_t key =
        i + (w > 0 ? static_cast<std::size_t>(jitter.uniform_int(
                         0, static_cast<std::int64_t>(w)))
                   : 0);
    ring[key % (w + 1)].push_back(std::move(logs[i]));
    arrive(ring[i % (w + 1)]);
  }
  for (std::size_t key = logs.size(); key < logs.size() + w; ++key)
    arrive(ring[key % (w + 1)]);
  std::move(late.begin(), late.end(), logs.begin() + placed);
  return logs;
}

TraceResult calibrated_feed(const std::vector<Tower>& towers,
                            const IntensityModel& intensity,
                            std::uint64_t seed, std::size_t n_records) {
  CS_CHECK_MSG(n_records >= 1, "a feed needs at least one record");
  TraceOptions options;
  options.seed = seed ^ 0x5E7EULL;
  double expected_bytes = 0.0;
  for (const auto& tower : towers)
    for (const double bytes : intensity.expected_series(tower.id))
      expected_bytes += bytes;
  const double copies = 1.0 + options.duplicate_prob + options.conflict_prob;
  options.mean_session_bytes =
      expected_bytes * copies / static_cast<double>(n_records);
  TraceResult trace = generate_trace(towers, intensity, options);
  ReplayOptions arrival;
  arrival.seed = seed ^ 0xA441FULL;
  // 32 positions per 200,000 records, rounded, at least 1: the jitter
  // spans ~6.5 event minutes on average whatever the feed's density, so a
  // sparse feed is no later against the lateness bound than a dense one.
  arrival.skew_window =
      std::max<std::size_t>(1, (32 * n_records + 100000) / 200000);
  arrival.late_fraction = 0.002;
  trace.logs = perturb_arrival_order(std::move(trace.logs), arrival);
  return trace;
}

namespace {

/// What replay_trace and replay_trace_file share: the stream.replay span
/// and its wall clock, the batch count, and the closing step.
class ReplayRun {
 public:
  explicit ReplayRun(StreamIngestor& ingestor)
      : ingestor_(ingestor), start_(ingestor.stats()) {}

  ReplayStats stats;

  obs::StageSpan& span() { return *span_; }

  /// Counts one fed batch of `records`.
  void batch_done(std::size_t records) {
    stats.records += records;
    ++stats.batches;
  }

  /// The closing step: the dropped/late sentinels (recorded inside the
  /// span, like the batch pipeline's stage checks) and the span
  /// annotations, both over this replay's share of the ingestor's
  /// counters, and the ReplayStats totals. Returns the filled stats.
  ReplayStats& finish() {
    auto& board = obs::QualityBoard::instance();
    const auto ingest = ingestor_.stats();
    const auto offered =
        static_cast<std::size_t>(ingest.offered - start_.offered);
    const auto dropped =
        static_cast<std::size_t>(ingest.dropped - start_.dropped);
    const auto late = static_cast<std::size_t>(ingest.late - start_.late);
    board.record("stream.replay", "stream_drop_ratio", obs::Severity::kFail,
                 obs::check_reject_ratio(dropped, offered, 0.01));
    board.record("stream.replay", "stream_late_ratio", obs::Severity::kWarn,
                 obs::check_reject_ratio(late, offered, 0.25));
    span_->annotate({"records", stats.records});
    span_->annotate({"batches", stats.batches});
    span_->annotate({"dropped", dropped});
    span_->annotate({"late", late});
    span_.reset();

    stats.ingest = ingest;
    stats.wall_ms = timer_.elapsed_ms();
    stats.records_per_sec =
        stats.wall_ms > 0.0
            ? static_cast<double>(stats.records) / (stats.wall_ms / 1e3)
            : 0.0;
    return stats;
  }

 private:
  StreamIngestor& ingestor_;
  const IngestStats start_;  ///< the ingestor's counters before this replay
  obs::ScopedTimer timer_;
  std::optional<obs::StageSpan> span_{std::in_place, "stream.replay",
                                      "stream"};
};

}  // namespace

ReplayStats replay_trace(const std::vector<TrafficLog>& logs,
                         StreamIngestor& ingestor, ThreadPool& pool,
                         const ReplayOptions& options) {
  CS_CHECK_MSG(options.batch_size >= 1, "batch_size must be positive");
  ReplayRun run(ingestor);
  for (std::size_t begin = 0; begin < logs.size();
       begin += options.batch_size) {
    const std::size_t end = std::min(logs.size(), begin + options.batch_size);
    ingestor.offer_batch(
        std::span<const TrafficLog>(logs.data() + begin, end - begin));
    ingestor.drain(pool);
    run.batch_done(end - begin);
  }
  return run.finish();
}

ReplayStats replay_trace_file(const std::string& path,
                              StreamIngestor& ingestor, ThreadPool& pool,
                              const FileReplayOptions& options) {
  CS_CHECK_MSG(options.batch_size >= 1, "batch_size must be positive");
  TraceCodec codec = options.codec == TraceCodec::kAuto
                         ? trace_codec_for_path(path)
                         : options.codec;
  ReplayRun run(ingestor);
  if (codec == TraceCodec::kCsv) {
    auto reader = open_trace_reader(path, TraceCodec::kCsv, options.batch_size);
    std::vector<TrafficLog> batch;
    while (reader->next_batch(batch)) {
      ingestor.offer_batch(batch);
      ingestor.drain(pool);
      run.batch_done(batch.size());
    }
  } else {
    // Columnar: one chunk per round, decoded straight out of the
    // mapping; the footer ranges prune chunks the filter rules out.
    MmapTraceReader reader(path);
    DecodedColumns cols;
    std::vector<TrafficLog> chunk;
    std::size_t skipped = 0;
    std::size_t corrupt = 0;
    for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
      if (!reader.chunk_overlaps(i, options.filter)) {
        columnar::io_metrics().chunks_skipped->add(1);
        ++skipped;
        continue;
      }
      const bool intact = options.bulk ? reader.read_chunk_columns(i, cols)
                                       : reader.read_chunk(i, chunk);
      if (!intact) {
        ++corrupt;
      } else if (options.bulk) {
        run.batch_done(ingestor.ingest_columns(cols));
      } else {
        ingestor.offer_batch(chunk);
        ingestor.drain(pool);
        run.batch_done(chunk.size());
      }
    }
    record_chunk_corrupt_ratio(corrupt, reader.chunk_count() - skipped);
    run.span().annotate({"chunks_skipped", skipped});
    run.span().annotate({"corrupt_chunks", corrupt});
  }
  run.span().annotate({"path", path});
  return run.finish();
}

}  // namespace cellscope
