// Sharded streaming ingest front-end — the online counterpart of the
// batch vectorizer (§3.2), fed record-by-record instead of file-at-once.
//
// Producers call offer()/offer_batch() from any thread; records route to
// per-shard lock-striped pending queues by tower id (a tower's window
// lives in exactly one shard, so window application never takes a
// cross-shard lock). drain() moves pending records into the per-tower
// TowerWindow accumulators on the shared mapred::ThreadPool, one index
// per shard. A full shard queue drops the record and says so — explicit drop
// accounting, never silent loss or unbounded memory.
//
// One ingest path: offer_batch (and offer, a one-record offer_batch) and
// the fused bulk ingest_columns share one arrival pass (watermarks,
// lateness, lag, grouping by shard), one per-shard window store (windows
// in creation order behind an open-addressed tower-id index) and one
// apply routine (window update, stale count, apply latency, unclassified
// frontier). drain() feeds queued records to that apply routine;
// ingest_columns feeds decoded rows to it directly (DESIGN.md §9).
//
// Determinism: within a shard, records apply in arrival order; across
// shards, windows are disjoint and bin updates are exact integer sums, so
// the final per-tower grids are bit-identical for any shard count and any
// arrival-order perturbation of the same record set (the stream-vs-batch
// equivalence contract, DESIGN.md §9; verified by ctest -L stream).
//
// Event-time progress: every shard tracks its own high watermark (largest
// end_minute routed to it); the shard low-watermark trails it by
// kMaxLatenessMinutes, and both only ever advance. Each offer also
// feeds an event-time lag histogram (how far behind the global watermark
// a record's start is), each drain a processing-latency histogram
// (offer() to window application, stamped per offer batch), and each
// classify pass an end-to-end latency observation (oldest applied-but-
// unclassified offer to classification) — the live signals status_json()
// (the query daemon's /stream body) and the watermark sentinels read.
//
// Metrics: cellscope.stream.{records_offered, records_accepted,
// records_dropped, records_late, records_stale, drain_batches} counters,
// cellscope.stream.pending_records gauge, cellscope.stream.drain_ms,
// cellscope.stream.event_lag_minutes, cellscope.stream.record_apply_ms,
// and cellscope.stream.record_e2e_ms histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "city/tower.h"
#include "mapred/thread_pool.h"
#include "stream/tower_window.h"
#include "traffic/columnar.h"
#include "traffic/trace_record.h"

namespace cellscope {

namespace obs {
class Counter;
class Gauge;
class Histogram;
class HistogramBatch;
}  // namespace obs

/// A record whose start_minute trails the watermark (largest end_minute
/// seen) by more than this is counted late. Late records still apply —
/// the ring keeps four weeks — the counter feeds the lateness sentinel.
inline constexpr std::uint32_t kMaxLatenessMinutes = 120;

/// Ingest configuration. from_env() reads the operational knobs.
struct StreamConfig {
  /// Number of lock stripes / window partitions (>= 1).
  std::size_t n_shards = 4;
  /// Per-shard pending-queue capacity; offers beyond it are dropped and
  /// counted. 0 means unbounded (replay/test convenience).
  std::size_t queue_capacity = 65536;

  /// Reads CELLSCOPE_STREAM_SHARDS (an integer in [1, 65536]) and
  /// CELLSCOPE_STREAM_QUEUE (a positive integer) over the defaults above;
  /// any other set value throws InvalidArgument.
  static StreamConfig from_env();
};

/// Outcome of offering one record.
enum class OfferResult {
  kAccepted,  ///< queued for the next drain
  kDropped,   ///< shard queue full — dropped and counted
};

/// Lifetime ingest counters (monotone; survive checkpoint/restore).
struct IngestStats {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;  ///< rejected by a full shard queue
  std::uint64_t late = 0;     ///< accepted but behind the lateness bound
  std::uint64_t stale = 0;    ///< applied-but-rejected by the ring (too old)
  std::uint64_t watermark_minute = 0;  ///< largest end_minute seen
  /// Event-time low watermark: the global watermark minus the lateness
  /// bound, clamped at 0 — exactly the lateness frontier the arrival pass
  /// measures against, so a record whose start trails it is counted late.
  /// Monotone non-decreasing because the watermark is.
  std::uint64_t low_watermark_minute = 0;
};

/// O(1) summary of one tower's window — the /towers/:id/window endpoint
/// body. Read under the shard lock but without copying the grid.
struct TowerWindowStats {
  std::size_t observed_slots = 0;
  std::uint64_t total_bytes = 0;
  double mean = 0.0;
  double variance = 0.0;
  std::uint64_t latest_minute = 0;
  std::uint32_t latest_cycle = 0;
};

/// One shard's live view, for /stream and tests.
struct ShardStats {
  std::size_t shard = 0;
  std::size_t queue_depth = 0;   ///< records pending drain
  std::size_t towers = 0;        ///< windows resident in this shard
  std::uint64_t dropped = 0;     ///< offers rejected by this shard's queue
  std::uint64_t watermark_minute = 0;      ///< shard event-time high watermark
  std::uint64_t low_watermark_minute = 0;  ///< watermark - lateness, >= 0
  /// Age (ms of processing time) of the oldest record applied to a
  /// window but not yet covered by a classify pass; 0 when none.
  double unclassified_age_ms = 0.0;
};

/// Sharded, lock-striped streaming ingestor over per-tower windows.
class StreamIngestor {
 public:
  explicit StreamIngestor(StreamConfig config = {});

  /// Pre-creates an empty window per tower so silent towers still appear
  /// in folded_vectors()/classify_all() (as cold-start rows).
  void register_towers(const std::vector<Tower>& towers);

  /// Routes one record to its shard queue: a one-record offer_batch.
  /// Thread-safe.
  OfferResult offer(const TrafficLog& log);

  /// Routes a batch, grouping by shard first so each stripe is locked
  /// once per call instead of once per record. Returns how many records
  /// were accepted. Thread-safe.
  std::size_t offer_batch(std::span<const TrafficLog> logs);

  /// Fused bulk ingest for the columnar replay path: applies one decoded
  /// chunk straight to the tower windows — no Pending copies, no queue,
  /// no separate drain. Equivalent to offering the records in column
  /// order and immediately draining: watermark, lateness, lag, stale,
  /// and apply-latency accounting all match that sequence exactly (the
  /// lag/late of record i is measured against the watermark as records
  /// 0..i-1 left it). Because no queue is involved it never drops, so it
  /// matches the offer path's counters whenever that path did not drop
  /// (queue_capacity 0, or drains keeping up). Per-record trace sampling
  /// is skipped — the bulk path never materializes user ids. Returns the
  /// number of records applied. Thread-safe.
  std::size_t ingest_columns(const DecodedColumns& cols);

  /// Drains every shard's pending queue into its windows, one pool index
  /// per shard (empty shards are skipped). Blocks until every queued record at entry has
  /// been applied. Thread-safe; concurrent drains serialize per shard.
  void drain(ThreadPool& pool);

  /// Records queued but not yet applied, summed over shards.
  std::size_t pending() const;

  IngestStats stats() const;

  /// Per-shard live view, ascending by shard index.
  std::vector<ShardStats> shard_stats() const;

  /// The query daemon's /stream body: one JSON object with the global totals
  /// (stats() plus pending) and a "shards" array of shard_stats().
  std::string status_json() const;

  /// Marks a classification pass over the current windows: the oldest
  /// applied-but-unclassified offer per shard resolves into one
  /// end-to-end latency observation (cellscope.stream.record_e2e_ms),
  /// and pending sampled records emit their record.classify spans.
  /// Called by OnlineClassifier::classify_all after each pass.
  void note_classify_pass() const;

  const StreamConfig& config() const { return config_; }

  /// Tower ids with a window, ascending.
  std::vector<std::uint32_t> tower_ids() const;

  /// Copy of one tower's window (under its shard lock); throws
  /// InvalidArgument when the tower has none.
  TowerWindow window_copy(std::uint32_t tower_id) const;

  /// O(1) stats of one tower's window, read under its shard lock without
  /// copying the 4032-slot grid — the serving plane's cheap read path.
  /// Throws InvalidArgument when the tower has none.
  TowerWindowStats window_stats(std::uint32_t tower_id) const;

  /// (tower id, folded z-scored mean week) for every window, ascending by
  /// id — the streaming equivalent of the batch
  /// fold_to_week(zscore_rows(vectorize_logs(...))) chain, bit-identical
  /// on the same records. Rows are independent; a pool parallelizes them.
  std::vector<std::pair<std::uint32_t, std::vector<double>>> folded_vectors(
      ThreadPool* pool = nullptr) const;

  /// Checkpointing access (stream/snapshot.h): full window states in
  /// ascending tower-id order, and their wholesale restoration. Restoring
  /// re-routes windows by id, so the restored ingestor may use a
  /// different shard count than the one that wrote the checkpoint.
  std::vector<std::pair<std::uint32_t, TowerWindow::State>> export_windows()
      const;
  void import_window(std::uint32_t tower_id, const TowerWindow::State& state);
  void restore_stats(const IngestStats& stats);

  StreamIngestor(const StreamIngestor&) = delete;
  StreamIngestor& operator=(const StreamIngestor&) = delete;

 private:
  /// A queued record plus its offer() wall stamp (process-relative µs,
  /// obs::now_us) — the start of its apply/e2e latency measurements.
  /// offer_batch stamps once per call, so records of one batch share it.
  struct Pending {
    TrafficLog log;
    double offered_us = 0.0;
  };

  struct Shard {
    mutable std::mutex queue_mutex;      // guards pending
    std::vector<Pending> pending;
    mutable std::mutex window_mutex;     // guards windows, index, application
    /// The shard's window store: windows in creation order, found through
    /// `index`, an open-addressed (tower id, position) table kept at most
    /// half full and updated at every creation (position UINT32_MAX marks
    /// an empty slot). Creation is an append plus one index insert, so a
    /// cold start is linear in the towers it creates.
    std::vector<std::pair<std::uint32_t, TowerWindow>> windows;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> index;
    /// Largest end_minute routed to this shard (CAS-max).
    std::atomic<std::uint64_t> watermark_minute{0};
    /// Offers this shard's full queue rejected.
    std::atomic<std::uint64_t> dropped{0};
    /// Offer stamp (integer µs, >= 1) of the oldest record applied to a
    /// window but not yet covered by a classify pass; 0 = none. CAS-min
    /// at apply, exchanged to 0 by note_classify_pass.
    std::atomic<std::uint64_t> oldest_unclassified_us{0};
    /// Sampled records applied but awaiting their classify span:
    /// (tower id, applied_us). Guarded by window_mutex; bounded.
    mutable std::vector<std::pair<std::uint32_t, double>> sampled_awaiting;

    /// The one tower -> window lookup: the window's position in
    /// `windows`, or UINT32_MAX when the tower has none. Caller holds
    /// window_mutex.
    std::uint32_t find(std::uint32_t tower_id) const;
    /// The tower's window; throws InvalidArgument when it has none.
    /// Caller holds window_mutex.
    const TowerWindow& window(std::uint32_t tower_id) const;
    /// The tower's window, created empty on first use. Caller holds
    /// window_mutex.
    TowerWindow& window_or_create(std::uint32_t tower_id);
  };

  /// One offer_batch/ingest_columns call's records grouped by shard:
  /// shard s owns order[begins[s], begins[s + 1]), in arrival order.
  struct ShardRuns;

  Shard& shard_of(std::uint32_t tower_id) const {
    return *shards_[tower_id % shards_.size()];
  }
  /// The arrival accounting of every producer path, over `n` records in
  /// arrival order (record(i) gives the i-th). Advances the global and
  /// shard watermarks, counts offered and late records, and buckets each
  /// record's event-time lag, all with sequential-arrival semantics: the
  /// lag and lateness of record i are measured against the watermark as
  /// records 0..i-1 left it. Returns the records grouped by shard.
  template <typename Record>
  ShardRuns arrive(std::size_t n, const Record& record);
  /// The apply routine of every path: applies one shard's run of `len`
  /// records (record(k) gives the k-th, in arrival order) to their
  /// windows under the shard's window lock, creating missing windows,
  /// then counts stale records, observes offer-to-apply latency and
  /// CAS-mins the shard's unclassified frontier. on_applied(k) runs under
  /// the lock after each record's window update.
  template <typename Record, typename OnApplied>
  void apply_run(Shard& shard, std::size_t len, const Record& record,
                 const OnApplied& on_applied);
  void drain_shard(Shard& shard);

  StreamConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> watermark_minute_{0};
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> late_{0};
  std::atomic<std::uint64_t> stale_{0};

  // Process-global metrics (registered once, hot-path cached).
  obs::Counter* metric_offered_;
  obs::Counter* metric_accepted_;
  obs::Counter* metric_dropped_;
  obs::Counter* metric_late_;
  obs::Counter* metric_stale_;
  obs::Counter* metric_drains_;
  obs::Gauge* metric_pending_;
  obs::Histogram* metric_drain_ms_;
  obs::Histogram* metric_event_lag_;  // pow2 minute buckets
  obs::Histogram* metric_apply_ms_;
  obs::Histogram* metric_e2e_ms_;
};

}  // namespace cellscope
