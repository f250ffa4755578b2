// Replay harness — streams a recorded (or generated) trace through the
// ingestor with controllable arrival-order defects.
//
// Real feeds deliver records roughly by time but never exactly: network
// skew reorders neighbors and a minority of records arrives very late.
// perturb_arrival_order is the one arrival model and covers both
// deterministically (seeded): records are sorted by start time (so the
// result does not depend on the input order — generate_trace emits
// tower by tower), bounded jitter moves each record at most skew_window
// positions either way, and a late_fraction sample is deferred to the
// very end of the stream. calibrated_feed is the one synthetic month of
// a city — generate_trace in that arrival order — that cellscoped
// replays and trace_convert synth writes. replay_trace then feeds the
// ingestor batch by batch, draining on the shared pool, and records the
// dropped/late data-quality sentinels inside its stream.replay stage
// span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mapred/thread_pool.h"
#include "stream/ingestor.h"
#include "traffic/trace_codec.h"
#include "traffic/trace_generator.h"
#include "traffic/trace_mmap.h"
#include "traffic/trace_record.h"

namespace cellscope {

/// Replay knobs. Defaults replay in order, no defects.
struct ReplayOptions {
  std::uint64_t seed = 99;
  /// Records offered per offer_batch()/drain() round.
  std::size_t batch_size = 8192;
  /// Most positions an on-time record moves from its start-time rank,
  /// either way (0 = in-order).
  std::size_t skew_window = 0;
  /// Fraction of records deferred to the end of the stream, in [0, 1].
  double late_fraction = 0.0;
};

/// Replay outcome.
struct ReplayStats {
  std::size_t records = 0;
  std::size_t batches = 0;
  /// The ingestor's lifetime counters after the replay, earlier replays
  /// into the same ingestor included; perfbench reads them as they are.
  /// The stream.replay sentinels and span annotations count this
  /// replay's share alone.
  IngestStats ingest;
  double wall_ms = 0.0;
  double records_per_sec = 0.0;
};

/// Deterministically perturbs arrival order per the options. Records are
/// put in canonical order (start minute, then the other fields); record
/// i then draws the key i + U{0..skew_window} and records arrive in
/// (key, i) order, so each moves at most skew_window positions either
/// way. (In fact fewer: a tie keeps read order, so a window of 1 leaves
/// the order as it is; a window wider than the stream acts as one as
/// wide.) Each arriving record is then deferred to the end of the stream
/// with probability late_fraction, the deferred ones keeping their
/// arrival order. That draw has a stream of its own, so the on-time
/// records keep their jittered order whatever the fraction. O(n) after
/// the sort and in place: beyond `logs` it holds the late tail and at
/// most skew_window waiting records. Same seed + options + records =>
/// same order, bit for bit.
std::vector<TrafficLog> perturb_arrival_order(std::vector<TrafficLog> logs,
                                              const ReplayOptions& options);

/// The calibrated feed of a city whose experiment seed is `seed`:
/// generate_trace over `towers` and `intensity` with its 2 % duplicate
/// and 1 % conflicting records (trace seed seed ^ 0x5E7E),
/// mean_session_bytes sized so the month carries `n_records` records in
/// expectation (Σ expected bytes × (1 + kDuplicateProb + kConflictProb)
/// / n_records), put in arrival order with late fraction 0.002 and skew
/// max(2, (32 × n_records + 100,000) / 200,000) — 32 at 200,000 records,
/// so the jitter spans the same event minutes at any density, and at
/// least 2, the narrowest window that reorders (arrival seed
/// seed ^ 0xA441F). Returns generate_trace's result with its logs in
/// that arrival order. Requires n_records >= 1.
TraceResult calibrated_feed(const std::vector<Tower>& towers,
                            const IntensityModel& intensity,
                            std::uint64_t seed, std::size_t n_records);

/// Streams `logs` (already in desired arrival order — compose with
/// perturb_arrival_order for defects) through the ingestor in batches,
/// draining each batch on `pool`. Records quality sentinels for the
/// stream.replay stage over the records this replay offered: drop ratio
/// (fail > 1%) and late ratio (warn > 25%). Classifying the result is the
/// caller's step (OnlineClassifier::classify_all).
ReplayStats replay_trace(const std::vector<TrafficLog>& logs,
                         StreamIngestor& ingestor, ThreadPool& pool,
                         const ReplayOptions& options = {});

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
  /// Columnar inputs: chunks whose footer tower/minute ranges cannot
  /// overlap this filter are skipped wholesale (counted on
  /// cellscope.io.chunks_skipped) — coarse, chunk-granular pruning;
  /// records of any chunk that overlaps all apply. Defaults pass all.
  ChunkFilter filter{};
};

/// Streams a trace file through the ingestor via the codec layer —
/// the full-scale ingest path. Corrupt chunks / malformed CSV lines are
/// skipped and counted per the codec contract; a columnar replay records
/// the trace_chunk_corrupt_ratio verdict over the chunks it read, on the
/// bulk and the offer path alike. Records the same
/// stream.replay sentinels as replay_trace. Throws IoError when the file
/// cannot be opened or its structure is invalid.
ReplayStats replay_trace_file(const std::string& path,
                              StreamIngestor& ingestor, ThreadPool& pool,
                              const FileReplayOptions& options = {});

}  // namespace cellscope
