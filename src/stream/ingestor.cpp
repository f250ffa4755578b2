#include "stream/ingestor.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace_sample.h"

namespace cellscope {

namespace {

/// Sampling identity of a record: a pure function of its content, so the
/// same record makes the same trace decision at every stage with no state
/// carried between them (obs/trace_sample.h).
std::uint64_t record_hash(const TrafficLog& log) {
  return obs::mix64(log.user_id ^
                    (static_cast<std::uint64_t>(log.tower_id) << 32) ^
                    (static_cast<std::uint64_t>(log.start_minute) << 1) ^
                    log.end_minute);
}

std::uint64_t low_watermark_of(std::uint64_t watermark) {
  return watermark > kMaxLatenessMinutes ? watermark - kMaxLatenessMinutes
                                         : 0;
}

/// Raises `target` to `value` when `value` is larger.
void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t seen = target.load(std::memory_order_relaxed);
  while (value > seen && !target.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

/// Lowers `target` to `value` when `target` is 0 (none yet) or larger.
void atomic_min_nonzero(std::atomic<std::uint64_t>& target,
                        std::uint64_t value) {
  std::uint64_t seen = target.load(std::memory_order_relaxed);
  while ((seen == 0 || value < seen) &&
         !target.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
  }
}

/// The fields of one record the ingest paths read, whichever form it
/// arrived in (a queued TrafficLog or a decoded column row), plus the
/// wall stamp of the call that offered it.
struct RecordRef {
  std::uint32_t tower;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t bytes;
  double offered_us;
};

RecordRef ref_of(const TrafficLog& log, double offered_us) {
  return {log.tower_id, log.start_minute, log.end_minute, log.bytes,
          offered_us};
}

constexpr std::uint32_t kNoWindow = std::numeric_limits<std::uint32_t>::max();

std::size_t home_slot(std::uint32_t tower_id, std::size_t mask) {
  return (tower_id * 2654435761u) & mask;
}

/// Puts (tower_id, pos) into the first free slot of its probe sequence.
void index_insert(std::vector<std::pair<std::uint32_t, std::uint32_t>>& index,
                  std::uint32_t tower_id, std::uint32_t pos) {
  const std::size_t mask = index.size() - 1;
  std::size_t slot = home_slot(tower_id, mask);
  while (index[slot].second != kNoWindow) slot = (slot + 1) & mask;
  index[slot] = {tower_id, pos};
}

/// Bound on sampled records awaiting their classify span per shard —
/// a classifier that never runs must not grow memory without limit.
constexpr std::size_t kMaxSampledAwaiting = 256;

}  // namespace

struct StreamIngestor::ShardRuns {
  std::vector<std::uint32_t> order;
  std::vector<std::size_t> begins;
};

StreamConfig StreamConfig::from_env() {
  StreamConfig config;
  config.n_shards = static_cast<std::size_t>(
      env_u64("CELLSCOPE_STREAM_SHARDS", config.n_shards, 1, 65536));
  config.queue_capacity = static_cast<std::size_t>(
      env_u64("CELLSCOPE_STREAM_QUEUE", config.queue_capacity, 1,
              std::numeric_limits<std::size_t>::max()));
  return config;
}

StreamIngestor::StreamIngestor(StreamConfig config) : config_(config) {
  CS_CHECK_MSG(config_.n_shards >= 1, "ingestor needs at least one shard");
  shards_.reserve(config_.n_shards);
  for (std::size_t s = 0; s < config_.n_shards; ++s)
    shards_.push_back(std::make_unique<Shard>());
  auto& registry = obs::MetricsRegistry::instance();
  metric_offered_ = &registry.counter("cellscope.stream.records_offered");
  metric_accepted_ = &registry.counter("cellscope.stream.records_accepted");
  metric_dropped_ = &registry.counter("cellscope.stream.records_dropped");
  metric_late_ = &registry.counter("cellscope.stream.records_late");
  metric_stale_ = &registry.counter("cellscope.stream.records_stale");
  metric_drains_ = &registry.counter("cellscope.stream.drain_batches");
  metric_pending_ = &registry.gauge("cellscope.stream.pending_records");
  metric_drain_ms_ = &registry.histogram("cellscope.stream.drain_ms");
  metric_event_lag_ = &registry.histogram("cellscope.stream.event_lag_minutes",
                                          obs::pow2_minute_buckets());
  metric_apply_ms_ = &registry.histogram("cellscope.stream.record_apply_ms");
  metric_e2e_ms_ = &registry.histogram("cellscope.stream.record_e2e_ms");
}

std::uint32_t StreamIngestor::Shard::find(std::uint32_t tower_id) const {
  if (index.empty()) return kNoWindow;
  const std::size_t mask = index.size() - 1;
  for (std::size_t slot = home_slot(tower_id, mask);;
       slot = (slot + 1) & mask) {
    const auto& [id, pos] = index[slot];
    if (pos == kNoWindow || id == tower_id) return pos;
  }
}

const TowerWindow& StreamIngestor::Shard::window(
    std::uint32_t tower_id) const {
  const std::uint32_t pos = find(tower_id);
  if (pos == kNoWindow)
    throw InvalidArgument("no window for tower id " +
                          std::to_string(tower_id));
  return windows[pos].second;
}

TowerWindow& StreamIngestor::Shard::window_or_create(std::uint32_t tower_id) {
  if (const std::uint32_t pos = find(tower_id); pos != kNoWindow)
    return windows[pos].second;
  const auto pos = static_cast<std::uint32_t>(windows.size());
  if (2 * (windows.size() + 1) > index.size()) {
    // Double the table and re-place every window (amortized O(1)).
    index.assign(std::max<std::size_t>(8, 2 * index.size()), {0, kNoWindow});
    for (std::uint32_t p = 0; p < pos; ++p)
      index_insert(index, windows[p].first, p);
  }
  index_insert(index, tower_id, pos);
  return windows.emplace_back(tower_id, TowerWindow()).second;
}

void StreamIngestor::register_towers(const std::vector<Tower>& towers) {
  for (const auto& tower : towers) {
    Shard& shard = shard_of(tower.id);
    std::lock_guard<std::mutex> lock(shard.window_mutex);
    shard.window_or_create(tower.id);
  }
}

template <typename Record>
StreamIngestor::ShardRuns StreamIngestor::arrive(std::size_t n,
                                                 const Record& record) {
  const std::size_t n_shards = shards_.size();
  ShardRuns runs;
  runs.begins.assign(n_shards + 1, 0);
  std::vector<std::uint64_t> shard_max_end(n_shards, 0);
  obs::HistogramBatch lag(*metric_event_lag_);
  // `observed` carries the global watermark exactly as each record would
  // have seen it offered alone: every earlier record's end included, its
  // own excluded, so a long connection never marks itself late.
  std::uint64_t observed = watermark_minute_.load(std::memory_order_relaxed);
  std::uint64_t late = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const RecordRef r = record(i);
    // Event-time lag: how far this record's start trails the watermark
    // (the frontier record itself has zero lag).
    const std::uint64_t lag_minutes =
        observed > r.start ? observed - r.start : 0;
    lag.observe_bucket(obs::pow2_minute_bucket(lag_minutes),
                       static_cast<double>(lag_minutes));
    if (r.start + kMaxLatenessMinutes < observed) ++late;
    if (r.end > observed) observed = r.end;
    const std::size_t s = r.tower % n_shards;
    ++runs.begins[s + 1];
    if (r.end > shard_max_end[s]) shard_max_end[s] = r.end;
  }
  offered_.fetch_add(n, std::memory_order_relaxed);
  metric_offered_->add(n);
  atomic_max(watermark_minute_, observed);
  for (std::size_t s = 0; s < n_shards; ++s)
    atomic_max(shards_[s]->watermark_minute, shard_max_end[s]);
  if (late > 0) {
    late_.fetch_add(late, std::memory_order_relaxed);
    metric_late_->add(late);
  }
  // Counting sort of record positions by shard: stable, so each shard's
  // run keeps arrival order.
  for (std::size_t s = 0; s < n_shards; ++s)
    runs.begins[s + 1] += runs.begins[s];
  runs.order.resize(n);
  std::vector<std::size_t> cursor(runs.begins.begin(), runs.begins.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    runs.order[cursor[record(i).tower % n_shards]++] =
        static_cast<std::uint32_t>(i);
  return runs;
}

template <typename Record, typename OnApplied>
void StreamIngestor::apply_run(Shard& shard, std::size_t len,
                               const Record& record,
                               const OnApplied& on_applied) {
  if (len == 0) return;
  std::uint64_t stale = 0;
  {
    std::lock_guard<std::mutex> lock(shard.window_mutex);
    for (std::size_t k = 0; k < len; ++k) {
      const RecordRef r = record(k);
      if (shard.window_or_create(r.tower).add(r.start, r.bytes) ==
          TowerWindow::Apply::kStale)
        ++stale;
      on_applied(k);
    }
  }
  // Offer-to-apply latency: records of one offer_batch/ingest_columns
  // call share an offer stamp, so one observe_n per run of equal stamps
  // covers every record at per-call cost.
  const double applied_us = obs::now_us();
  for (std::size_t i = 0; i < len;) {
    const double offered_us = record(i).offered_us;
    std::size_t j = i + 1;
    while (j < len && record(j).offered_us == offered_us) ++j;
    metric_apply_ms_->observe_n((applied_us - offered_us) / 1000.0, j - i);
    i = j;
  }
  // The run is in arrival order, so its first stamp is the oldest; clamp
  // it to >= 1 because 0 means "none" in the frontier.
  atomic_min_nonzero(shard.oldest_unclassified_us,
                     std::max<std::uint64_t>(
                         1, static_cast<std::uint64_t>(record(0).offered_us)));
  if (stale > 0) {
    stale_.fetch_add(stale, std::memory_order_relaxed);
    metric_stale_->add(stale);
  }
}

OfferResult StreamIngestor::offer(const TrafficLog& log) {
  return offer_batch(std::span<const TrafficLog>(&log, 1)) == 1
             ? OfferResult::kAccepted
             : OfferResult::kDropped;
}

std::size_t StreamIngestor::offer_batch(std::span<const TrafficLog> logs) {
  if (logs.empty()) return 0;
  // Group by shard first: one stripe lock per shard per call, not per
  // record — the difference between ~1 M and ~10 M records/sec on the
  // replay path. The whole batch shares one offer stamp.
  const double offered_us = obs::now_us();
  const ShardRuns runs = arrive(logs.size(), [&](std::size_t i) {
    return ref_of(logs[i], offered_us);
  });
  std::size_t total_accepted = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t begin = runs.begins[s];
    const std::size_t size = runs.begins[s + 1] - begin;
    if (size == 0) continue;
    Shard& shard = *shards_[s];
    std::size_t taken = size;
    {
      std::lock_guard<std::mutex> lock(shard.queue_mutex);
      if (config_.queue_capacity > 0) {
        const std::size_t room =
            shard.pending.size() >= config_.queue_capacity
                ? 0
                : config_.queue_capacity - shard.pending.size();
        taken = std::min(taken, room);
      }
      shard.pending.reserve(shard.pending.size() + taken);
      for (std::size_t k = begin; k < begin + taken; ++k)
        shard.pending.push_back(Pending{logs[runs.order[k]], offered_us});
    }
    const std::size_t refused = size - taken;
    if (refused > 0) {
      dropped_.fetch_add(refused, std::memory_order_relaxed);
      shard.dropped.fetch_add(refused, std::memory_order_relaxed);
      metric_dropped_->add(refused);
    }
    if (taken > 0) {
      accepted_.fetch_add(taken, std::memory_order_relaxed);
      metric_accepted_->add(taken);
      metric_pending_->add(static_cast<std::int64_t>(taken));
    }
    total_accepted += taken;
  }
  return total_accepted;
}

std::size_t StreamIngestor::ingest_columns(const DecodedColumns& cols) {
  const std::size_t n = cols.size();
  if (n == 0) return 0;
  const double offered_us = obs::now_us();
  const auto row = [&](std::size_t i) {
    return RecordRef{cols.tower[i], cols.start[i], cols.end[i], cols.bytes[i],
                     offered_us};
  };
  const ShardRuns runs = arrive(n, row);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t begin = runs.begins[s];
    apply_run(
        *shards_[s], runs.begins[s + 1] - begin,
        [&](std::size_t k) { return row(runs.order[begin + k]); },
        [](std::size_t) {});
  }
  accepted_.fetch_add(n, std::memory_order_relaxed);
  metric_accepted_->add(n);
  return n;
}

void StreamIngestor::drain_shard(Shard& shard) {
  std::vector<Pending> batch;
  {
    std::lock_guard<std::mutex> lock(shard.queue_mutex);
    batch.swap(shard.pending);
  }
  if (batch.empty()) return;
  auto& sampler = obs::TraceSampler::instance();
  auto& trace = obs::StageTrace::instance();
  // Per-record work beyond the window update only happens for sampled
  // records while tracing is on.
  const bool tracing = sampler.active() && trace.enabled();
  apply_run(
      shard, batch.size(),
      [&](std::size_t k) { return ref_of(batch[k].log, batch[k].offered_us); },
      [&](std::size_t k) {
        const TrafficLog& log = batch[k].log;
        if (!tracing || !sampler.sampled(record_hash(log))) return;
        const double applied_us = obs::now_us();
        trace.record_complete(
            "record.apply", "stream", batch[k].offered_us,
            applied_us - batch[k].offered_us,
            "\"tower\":" + std::to_string(log.tower_id) +
                ",\"user\":" + std::to_string(log.user_id) +
                ",\"start_minute\":" + std::to_string(log.start_minute));
        if (shard.sampled_awaiting.size() < kMaxSampledAwaiting)
          shard.sampled_awaiting.emplace_back(log.tower_id, applied_us);
      });
  metric_pending_->add(-static_cast<std::int64_t>(batch.size()));
}

void StreamIngestor::drain(ThreadPool& pool) {
  obs::ScopedTimer timer;
  for_each_index(&pool, shards_.size(), [this](std::size_t s) {
    Shard& shard = *shards_[s];
    {
      std::lock_guard<std::mutex> lock(shard.queue_mutex);
      if (shard.pending.empty()) return;
    }
    drain_shard(shard);
  });
  metric_drains_->add(1);
  metric_drain_ms_->observe(timer.elapsed_ms());
}

void StreamIngestor::note_classify_pass() const {
  const double now = obs::now_us();
  auto& sampler = obs::TraceSampler::instance();
  auto& trace = obs::StageTrace::instance();
  const bool tracing = sampler.active() && trace.enabled();
  for (const auto& shard : shards_) {
    const std::uint64_t oldest =
        shard->oldest_unclassified_us.exchange(0, std::memory_order_relaxed);
    if (oldest != 0)
      metric_e2e_ms_->observe((now - static_cast<double>(oldest)) / 1000.0);
    std::vector<std::pair<std::uint32_t, double>> sampled;
    {
      std::lock_guard<std::mutex> lock(shard->window_mutex);
      sampled.swap(shard->sampled_awaiting);
    }
    if (!tracing) continue;
    for (const auto& [tower, applied_us] : sampled)
      trace.record_complete("record.classify", "stream", applied_us,
                            now - applied_us,
                            "\"tower\":" + std::to_string(tower));
  }
}

std::size_t StreamIngestor::pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->queue_mutex);
    total += shard->pending.size();
  }
  return total;
}

IngestStats StreamIngestor::stats() const {
  IngestStats stats;
  stats.offered = offered_.load(std::memory_order_relaxed);
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.dropped = dropped_.load(std::memory_order_relaxed);
  stats.late = late_.load(std::memory_order_relaxed);
  stats.stale = stale_.load(std::memory_order_relaxed);
  stats.watermark_minute = watermark_minute_.load(std::memory_order_relaxed);
  stats.low_watermark_minute = low_watermark_of(stats.watermark_minute);
  return stats;
}

std::vector<ShardStats> StreamIngestor::shard_stats() const {
  const double now = obs::now_us();
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    ShardStats stats;
    stats.shard = s;
    {
      std::lock_guard<std::mutex> lock(shard.queue_mutex);
      stats.queue_depth = shard.pending.size();
    }
    {
      std::lock_guard<std::mutex> lock(shard.window_mutex);
      stats.towers = shard.windows.size();
    }
    stats.dropped = shard.dropped.load(std::memory_order_relaxed);
    stats.watermark_minute =
        shard.watermark_minute.load(std::memory_order_relaxed);
    stats.low_watermark_minute = low_watermark_of(stats.watermark_minute);
    const std::uint64_t oldest =
        shard.oldest_unclassified_us.load(std::memory_order_relaxed);
    if (oldest != 0) {
      const double age_ms = (now - static_cast<double>(oldest)) / 1000.0;
      stats.unclassified_age_ms = age_ms > 0.0 ? age_ms : 0.0;
    }
    out.push_back(stats);
  }
  return out;
}

std::string StreamIngestor::status_json() const {
  const IngestStats totals = stats();
  std::string json = "{\"watermark_minute\":";
  json += std::to_string(totals.watermark_minute);
  json += ",\"low_watermark_minute\":";
  json += std::to_string(totals.low_watermark_minute);
  json += ",\"offered\":" + std::to_string(totals.offered);
  json += ",\"accepted\":" + std::to_string(totals.accepted);
  json += ",\"dropped\":" + std::to_string(totals.dropped);
  json += ",\"late\":" + std::to_string(totals.late);
  json += ",\"stale\":" + std::to_string(totals.stale);
  json += ",\"pending\":" + std::to_string(pending());
  // Trace-ingest IO counters (traffic/columnar.h): how the records got
  // here — chunks decoded/skipped/corrupt and bytes mapped so far.
  {
    const auto& io = columnar::io_metrics();
    json += ",\"io\":{\"chunks_read\":" +
            std::to_string(io.chunks_read->value());
    json += ",\"chunks_skipped\":" + std::to_string(io.chunks_skipped->value());
    json += ",\"chunks_corrupt\":" + std::to_string(io.chunks_corrupt->value());
    json += ",\"bytes_mapped\":" + std::to_string(io.bytes_mapped->value());
    json += '}';
  }
  json += ",\"shards\":[";
  bool first = true;
  for (const ShardStats& shard : shard_stats()) {
    if (!first) json += ',';
    first = false;
    json += "{\"shard\":" + std::to_string(shard.shard);
    json += ",\"queue_depth\":" + std::to_string(shard.queue_depth);
    json += ",\"towers\":" + std::to_string(shard.towers);
    json += ",\"dropped\":" + std::to_string(shard.dropped);
    json += ",\"watermark_minute\":" + std::to_string(shard.watermark_minute);
    json += ",\"low_watermark_minute\":" +
            std::to_string(shard.low_watermark_minute);
    json += ",\"unclassified_age_ms\":" +
            std::to_string(shard.unclassified_age_ms);
    json += '}';
  }
  json += "]}";
  return json;
}

std::vector<std::uint32_t> StreamIngestor::tower_ids() const {
  std::vector<std::uint32_t> ids;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->window_mutex);
    for (const auto& [id, window] : shard->windows) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TowerWindow StreamIngestor::window_copy(std::uint32_t tower_id) const {
  const Shard& shard = shard_of(tower_id);
  std::lock_guard<std::mutex> lock(shard.window_mutex);
  return shard.window(tower_id);
}

TowerWindowStats StreamIngestor::window_stats(std::uint32_t tower_id) const {
  const Shard& shard = shard_of(tower_id);
  std::lock_guard<std::mutex> lock(shard.window_mutex);
  const TowerWindow& window = shard.window(tower_id);
  TowerWindowStats stats;
  stats.observed_slots = window.observed_slots();
  stats.total_bytes = window.total_bytes();
  stats.mean = window.mean();
  stats.variance = window.variance();
  stats.latest_minute = window.latest_minute();
  stats.latest_cycle = window.latest_cycle();
  return stats;
}

std::vector<std::pair<std::uint32_t, std::vector<double>>>
StreamIngestor::folded_vectors(ThreadPool* pool) const {
  // Snapshot every window under its shard lock, then fold outside all
  // locks (folding is the expensive part and rows are independent).
  std::vector<std::pair<std::uint32_t, TowerWindow>> snapshot;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->window_mutex);
    for (const auto& entry : shard->windows) snapshot.push_back(entry);
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::pair<std::uint32_t, std::vector<double>>> out(
      snapshot.size());
  for_each_index(pool, snapshot.size(), [&](std::size_t i) {
    out[i] = {snapshot[i].first, snapshot[i].second.folded_week()};
  });
  return out;
}

std::vector<std::pair<std::uint32_t, TowerWindow::State>>
StreamIngestor::export_windows() const {
  std::vector<std::pair<std::uint32_t, TowerWindow::State>> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->window_mutex);
    for (const auto& [id, window] : shard->windows)
      out.emplace_back(id, window.state());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void StreamIngestor::import_window(std::uint32_t tower_id,
                                   const TowerWindow::State& state) {
  Shard& shard = shard_of(tower_id);
  std::lock_guard<std::mutex> lock(shard.window_mutex);
  TowerWindow& window =
      (shard.window_or_create(tower_id) = TowerWindow::from_state(state));
  // Re-seed the shard's event-time progress from the restored window so
  // /stream shows a sane (bin-granular) watermark after a restore.
  atomic_max(shard.watermark_minute, window.latest_minute());
}

void StreamIngestor::restore_stats(const IngestStats& stats) {
  offered_.store(stats.offered, std::memory_order_relaxed);
  accepted_.store(stats.accepted, std::memory_order_relaxed);
  dropped_.store(stats.dropped, std::memory_order_relaxed);
  late_.store(stats.late, std::memory_order_relaxed);
  stale_.store(stats.stale, std::memory_order_relaxed);
  watermark_minute_.store(stats.watermark_minute, std::memory_order_relaxed);
}

}  // namespace cellscope
