// Replay harness — streams a recorded (or generated) trace through the
// ingestor with controllable arrival-order defects.
//
// Real feeds deliver records roughly by time but never exactly: network
// skew reorders neighbors and a minority of records arrives very late.
// perturb_arrival_order models both deterministically (seeded): records
// are sorted by start time, a bounded Fisher-Yates pass shuffles each
// record within ±skew_window positions, and a late_fraction sample is
// deferred to the very end of the stream. replay_trace then feeds the
// ingestor batch by batch, draining on the shared pool, and registers the
// dropped/late data-quality sentinels evaluated when its stream.replay
// stage span closes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mapred/thread_pool.h"
#include "stream/ingestor.h"
#include "stream/online_classifier.h"
#include "traffic/trace_codec.h"
#include "traffic/trace_mmap.h"
#include "traffic/trace_record.h"

namespace cellscope {

/// Replay knobs. Defaults replay in order, no defects.
struct ReplayOptions {
  std::uint64_t seed = 99;
  /// Records offered per offer_batch()/drain() round.
  std::size_t batch_size = 8192;
  /// Local reorder radius, in records (0 = in-order).
  std::size_t skew_window = 0;
  /// Fraction of records deferred to the end of the stream, in [0, 1].
  double late_fraction = 0.0;
  /// Run classifier.classify_all every this many batches (0 = only the
  /// final pass) — the online re-evaluation cadence.
  std::size_t classify_every_batches = 0;
  /// When > 0 (and metrics_jsonl_path is set), append one full metrics
  /// snapshot line to the JSONL file at roughly this wall-time cadence
  /// during the replay, plus one final line — a file-based scrape for
  /// processes that serve no HTTP. Each line is
  /// {"wall_ms": <replay wall clock>, "metrics": <snapshot_json()>}.
  std::uint32_t metrics_interval_ms = 0;
  std::string metrics_jsonl_path;
};

/// Replay outcome.
struct ReplayStats {
  std::size_t records = 0;
  std::size_t batches = 0;
  IngestStats ingest;  ///< ingestor lifetime counters after the replay
  double wall_ms = 0.0;
  double records_per_sec = 0.0;
  std::size_t classify_passes = 0;
  /// Metrics snapshot lines appended to metrics_jsonl_path (0 when the
  /// periodic scrape was off).
  std::size_t metrics_snapshots = 0;
  /// Final classification per tower (ascending id); empty when no
  /// classifier was supplied.
  std::vector<std::pair<std::uint32_t, Classification>> labels;
};

/// Deterministically perturbs arrival order per the options (see file
/// comment). Same seed + options + records => same order, bit for bit.
std::vector<TrafficLog> perturb_arrival_order(std::vector<TrafficLog> logs,
                                              const ReplayOptions& options);

/// Streams `logs` (already in desired arrival order — compose with
/// perturb_arrival_order for defects) through the ingestor in batches,
/// draining each batch on `pool`. When `classifier` is non-null the final
/// (and cadenced) classification passes run and the last one is returned
/// in ReplayStats::labels. Registers quality sentinels on the
/// stream.replay stage: record drop ratio (fail > 1%) and late ratio
/// (warn > 25%).
ReplayStats replay_trace(const std::vector<TrafficLog>& logs,
                         StreamIngestor& ingestor, ThreadPool& pool,
                         const ReplayOptions& options = {},
                         const OnlineClassifier* classifier = nullptr);

/// Knobs for replaying straight from a trace file (out-of-core: only one
/// batch / chunk of records is resident at a time).
struct FileReplayOptions {
  /// Backend; kAuto routes by extension. Columnar inputs (kBinary or
  /// kMmap) replay through the mapped reader.
  TraceCodec codec = TraceCodec::kAuto;
  /// Columnar inputs: apply decoded chunks via ingest_columns (the fused
  /// bulk path — no queue, no drain, user/address columns never decoded).
  /// When false, chunks go through offer_batch + drain like any other
  /// producer. CSV inputs always use the offer path.
  bool bulk = true;
  /// Records per offer_batch round on the CSV/offer path.
  std::size_t batch_size = 8192;
  /// Run classifier.classify_all every this many batches/chunks (0 =
  /// only the final pass).
  std::size_t classify_every_batches = 0;
  /// Columnar inputs: chunks whose footer tower/minute ranges cannot
  /// overlap this filter are skipped wholesale (counted on
  /// cellscope.io.chunks_skipped) — coarse, chunk-granular pruning;
  /// records of any chunk that overlaps all apply. Defaults pass all.
  ChunkFilter filter{};
};

/// Streams a trace file through the ingestor via the codec layer —
/// the full-scale ingest path. Corrupt chunks / malformed CSV lines are
/// skipped and counted per the codec contract. Registers the same
/// stream.replay sentinels as replay_trace. Throws IoError when the file
/// cannot be opened or its structure is invalid.
ReplayStats replay_trace_file(const std::string& path,
                              StreamIngestor& ingestor, ThreadPool& pool,
                              const FileReplayOptions& options = {},
                              const OnlineClassifier* classifier = nullptr);

}  // namespace cellscope
