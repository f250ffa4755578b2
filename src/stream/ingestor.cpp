#include "stream/ingestor.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/error.h"
#include "common/string_util.h"
#include "obs/introspect.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace_sample.h"

namespace cellscope {

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr && *env != '\0') {
    if (const auto parsed = parse_u64(env, 1))
      return static_cast<std::size_t>(*parsed);
  }
  return fallback;
}

/// Sampling identity of a record: a pure function of its content, so the
/// same record makes the same trace decision at every stage with no state
/// carried between them (obs/trace_sample.h).
std::uint64_t record_hash(const TrafficLog& log) {
  return obs::mix64(log.user_id ^
                    (static_cast<std::uint64_t>(log.tower_id) << 32) ^
                    (static_cast<std::uint64_t>(log.start_minute) << 1) ^
                    log.end_minute);
}

std::uint64_t low_watermark_of(std::uint64_t watermark,
                               std::uint32_t max_lateness) {
  return watermark > max_lateness ? watermark - max_lateness : 0;
}

/// Bound on sampled records awaiting their classify span per shard —
/// a classifier that never runs must not grow memory without limit.
constexpr std::size_t kMaxSampledAwaiting = 256;

}  // namespace

StreamConfig StreamConfig::from_env() {
  StreamConfig config;
  config.n_shards = env_size("CELLSCOPE_STREAM_SHARDS", config.n_shards);
  config.queue_capacity =
      env_size("CELLSCOPE_STREAM_QUEUE", config.queue_capacity);
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
  // Live shard view; the destructor's remove_handler drains any in-flight
  // request before `this` goes away.
  obs::EndpointRegistry::instance().set_handler(
      "/stream",
      [this] {
        obs::HttpResponse response;
        response.content_type = "application/json";
        response.body = status_json();
        return response;
      },
      this);
}

StreamIngestor::~StreamIngestor() {
  obs::EndpointRegistry::instance().remove_handler("/stream", this);
}

void StreamIngestor::register_towers(const std::vector<Tower>& towers) {
  for (const auto& tower : towers) {
    Shard& shard = shard_of(tower.id);
    std::lock_guard<std::mutex> lock(shard.window_mutex);
    window_in(shard, tower.id);
  }
}

TowerWindow& StreamIngestor::window_in(Shard& shard, std::uint32_t tower_id) {
  auto it = std::lower_bound(
      shard.windows.begin(), shard.windows.end(), tower_id,
      [](const auto& entry, std::uint32_t id) { return entry.first < id; });
  if (it == shard.windows.end() || it->first != tower_id)
    it = shard.windows.emplace(it, tower_id, TowerWindow());
  return it->second;
}

bool StreamIngestor::account_arrival(const TrafficLog& log, Shard& shard,
                                     obs::HistogramBatch& lag) {
  offered_.fetch_add(1, std::memory_order_relaxed);
  metric_offered_->add(1);
  // Watermark: largest end_minute seen so far. `observed` ends up holding
  // the watermark *excluding* this record's own update, so a long
  // connection never marks itself late.
  const std::uint64_t end = log.end_minute;
  std::uint64_t observed = watermark_minute_.load(std::memory_order_relaxed);
  while (end > observed &&
         !watermark_minute_.compare_exchange_weak(observed, end,
                                                  std::memory_order_relaxed)) {
  }
  std::uint64_t shard_seen =
      shard.watermark_minute.load(std::memory_order_relaxed);
  while (end > shard_seen &&
         !shard.watermark_minute.compare_exchange_weak(
             shard_seen, end, std::memory_order_relaxed)) {
  }
  // Event-time lag: how far this record's start trails the watermark as
  // it stood on arrival (the frontier record itself has zero lag).
  const std::uint64_t lag_minutes =
      observed > log.start_minute ? observed - log.start_minute : 0;
  lag.observe_bucket(obs::pow2_minute_bucket(lag_minutes),
                     static_cast<double>(lag_minutes));
  const bool late =
      static_cast<std::uint64_t>(log.start_minute) +
          config_.max_lateness_minutes <
      observed;
  if (late) {
    late_.fetch_add(1, std::memory_order_relaxed);
    metric_late_->add(1);
  }
  return late;
}

OfferResult StreamIngestor::offer(const TrafficLog& log) {
  obs::HistogramBatch lag(*metric_event_lag_);
  Shard& shard = shard_of(log.tower_id);
  account_arrival(log, shard, lag);
  const double offered_us = obs::now_us();
  {
    std::lock_guard<std::mutex> lock(shard.queue_mutex);
    if (config_.queue_capacity > 0 &&
        shard.pending.size() >= config_.queue_capacity) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      shard.dropped.fetch_add(1, std::memory_order_relaxed);
      metric_dropped_->add(1);
      return OfferResult::kDropped;
    }
    shard.pending.push_back(Pending{log, offered_us});
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  metric_accepted_->add(1);
  metric_pending_->add(1);
  return OfferResult::kAccepted;
}

std::size_t StreamIngestor::offer_batch(std::span<const TrafficLog> logs) {
  // Group by shard first: one stripe lock per shard per call, not per
  // record — the difference between ~1 M and ~10 M records/sec on the
  // replay path. Lag observations aggregate locally and flush once, and
  // the whole batch shares one offer stamp — per-record cost stays at a
  // hash-free bucket increment.
  obs::HistogramBatch lag(*metric_event_lag_);
  const double offered_us = obs::now_us();
  std::vector<std::vector<const TrafficLog*>> buckets(shards_.size());
  for (const auto& log : logs) {
    const std::size_t s = log.tower_id % shards_.size();
    account_arrival(log, *shards_[s], lag);
    buckets[s].push_back(&log);
  }
  std::size_t total_accepted = 0;
  for (std::size_t s = 0; s < buckets.size(); ++s) {
    const auto& bucket = buckets[s];
    if (bucket.empty()) continue;
    Shard& shard = *shards_[s];
    std::size_t taken = bucket.size();
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
      for (std::size_t i = 0; i < taken; ++i)
        shard.pending.push_back(Pending{*bucket[i], offered_us});
    }
    const std::size_t refused = bucket.size() - taken;
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

void StreamIngestor::rebuild_window_index(Shard& shard) {
  std::size_t cap = 8;
  while (cap < shard.windows.size() * 2) cap <<= 1;
  shard.window_index.assign(
      cap, {0, std::numeric_limits<std::uint32_t>::max()});
  const std::size_t mask = cap - 1;
  for (std::size_t pos = 0; pos < shard.windows.size(); ++pos) {
    std::size_t slot =
        (shard.windows[pos].first * 2654435761u) & mask;
    while (shard.window_index[slot].second !=
           std::numeric_limits<std::uint32_t>::max())
      slot = (slot + 1) & mask;
    shard.window_index[slot] = {shard.windows[pos].first,
                                static_cast<std::uint32_t>(pos)};
  }
  shard.window_index_size = shard.windows.size();
}

void StreamIngestor::create_windows(
    Shard& shard, const std::vector<std::uint32_t>& towers) {
  const std::size_t old_count = shard.windows.size();
  // Appends stay sorted because `towers` is sorted and distinct.
  for (const std::uint32_t id : towers)
    shard.windows.emplace_back(id, TowerWindow());
  std::inplace_merge(
      shard.windows.begin(), shard.windows.begin() + old_count,
      shard.windows.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  rebuild_window_index(shard);
}

std::uint32_t StreamIngestor::window_position(const Shard& shard,
                                              std::uint32_t tower_id) const {
  const std::size_t mask = shard.window_index.size() - 1;
  std::size_t slot = (tower_id * 2654435761u) & mask;
  for (;;) {
    const auto& entry = shard.window_index[slot];
    if (entry.second == std::numeric_limits<std::uint32_t>::max())
      return std::numeric_limits<std::uint32_t>::max();
    if (entry.first == tower_id) return entry.second;
    slot = (slot + 1) & mask;
  }
}

std::size_t StreamIngestor::ingest_columns(const DecodedColumns& cols) {
  const std::size_t n = cols.size();
  if (n == 0) return 0;
  obs::HistogramBatch lag(*metric_event_lag_);
  const double offered_us = obs::now_us();
  offered_.fetch_add(n, std::memory_order_relaxed);
  metric_offered_->add(n);

  // Watermark/lateness/lag accounting with sequential-arrival semantics,
  // fused into one pass: `observed` carries the global watermark exactly
  // as each record would have seen it had the batch been offered
  // record-by-record (excluding the record's own update).
  std::uint64_t observed = watermark_minute_.load(std::memory_order_relaxed);
  std::uint64_t late = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t start = cols.start[i];
    const std::uint64_t end = cols.end[i];
    const std::uint64_t lag_minutes = observed > start ? observed - start : 0;
    lag.observe_bucket(obs::pow2_minute_bucket(lag_minutes),
                       static_cast<double>(lag_minutes));
    if (start + config_.max_lateness_minutes < observed) ++late;
    if (end > observed) observed = end;
  }
  std::uint64_t seen = watermark_minute_.load(std::memory_order_relaxed);
  while (observed > seen &&
         !watermark_minute_.compare_exchange_weak(seen, observed,
                                                  std::memory_order_relaxed)) {
  }
  if (late > 0) {
    late_.fetch_add(late, std::memory_order_relaxed);
    metric_late_->add(late);
  }

  // Scatter record positions by shard (counting sort keeps this one
  // allocation-light linear pass), then apply each shard's run under its
  // window lock.
  const std::size_t n_shards = shards_.size();
  std::vector<std::uint32_t> order;
  std::vector<std::size_t> begins;  // per-shard [begin, end) into order
  if (n_shards > 1) {
    std::vector<std::size_t> counts(n_shards, 0);
    for (std::size_t i = 0; i < n; ++i) ++counts[cols.tower[i] % n_shards];
    begins.resize(n_shards + 1, 0);
    for (std::size_t s = 0; s < n_shards; ++s)
      begins[s + 1] = begins[s] + counts[s];
    order.resize(n);
    std::vector<std::size_t> cursor(begins.begin(), begins.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      order[cursor[cols.tower[i] % n_shards]++] =
          static_cast<std::uint32_t>(i);
  }

  const std::uint64_t stamp = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(offered_us));
  std::uint64_t stale_total = 0;
  // Per-shard scratch, reused across shards: per-record window positions
  // and the (usually empty) list of towers still missing a window.
  std::vector<std::uint32_t> pos;
  std::vector<std::uint32_t> missing;
  for (std::size_t s = 0; s < n_shards; ++s) {
    const std::size_t begin = n_shards > 1 ? begins[s] : 0;
    const std::size_t end = n_shards > 1 ? begins[s + 1] : n;
    if (begin == end) continue;
    const std::size_t len = end - begin;
    Shard& shard = *shards_[s];
    std::uint64_t shard_max_end = 0;
    std::uint64_t stale = 0;
    {
      std::lock_guard<std::mutex> lock(shard.window_mutex);
      if (shard.window_index_size != shard.windows.size() ||
          shard.window_index.empty())
        rebuild_window_index(shard);
      // Resolve every record's window position first, collecting towers
      // that still need one. In steady state `missing` stays empty and
      // this is a single O(1) probe per record; on a cold start the
      // misses are created in one batch (append + merge + one index
      // rebuild) instead of a per-tower middle-insert + full rebuild,
      // which made first-chunk ingest quadratic at city scale.
      pos.resize(len);
      missing.clear();
      for (std::size_t k = begin; k < end; ++k) {
        const std::uint32_t p =
            window_position(shard, cols.tower[n_shards > 1 ? order[k] : k]);
        pos[k - begin] = p;
        if (p == std::numeric_limits<std::uint32_t>::max())
          missing.push_back(cols.tower[n_shards > 1 ? order[k] : k]);
      }
      if (!missing.empty()) {
        std::sort(missing.begin(), missing.end());
        missing.erase(std::unique(missing.begin(), missing.end()),
                      missing.end());
        create_windows(shard, missing);
        // The merge shifted existing windows too — re-resolve them all.
        for (std::size_t k = begin; k < end; ++k)
          pos[k - begin] =
              window_position(shard, cols.tower[n_shards > 1 ? order[k] : k]);
      }
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t i = n_shards > 1 ? order[k] : k;
        TowerWindow& window = shard.windows[pos[k - begin]].second;
        if (window.add(cols.start[i], cols.bytes[i]) ==
            TowerWindow::Apply::kStale)
          ++stale;
        if (cols.end[i] > shard_max_end) shard_max_end = cols.end[i];
      }
    }
    std::uint64_t shard_seen =
        shard.watermark_minute.load(std::memory_order_relaxed);
    while (shard_max_end > shard_seen &&
           !shard.watermark_minute.compare_exchange_weak(
               shard_seen, shard_max_end, std::memory_order_relaxed)) {
    }
    const double applied_us = obs::now_us();
    metric_apply_ms_->observe_n((applied_us - offered_us) / 1000.0,
                                end - begin);
    std::uint64_t oldest =
        shard.oldest_unclassified_us.load(std::memory_order_relaxed);
    while ((oldest == 0 || stamp < oldest) &&
           !shard.oldest_unclassified_us.compare_exchange_weak(
               oldest, stamp, std::memory_order_relaxed)) {
    }
    stale_total += stale;
  }
  accepted_.fetch_add(n, std::memory_order_relaxed);
  metric_accepted_->add(n);
  if (stale_total > 0) {
    stale_.fetch_add(stale_total, std::memory_order_relaxed);
    metric_stale_->add(stale_total);
  }
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
  // Per-record work below only happens for sampled records while tracing
  // is on; with tracing off the loop body is the window update alone.
  const bool tracing = sampler.active() && trace.enabled();
  std::uint64_t stale = 0;
  {
    std::lock_guard<std::mutex> lock(shard.window_mutex);
    for (const auto& entry : batch) {
      const TrafficLog& log = entry.log;
      TowerWindow& window = window_in(shard, log.tower_id);
      if (window.add(log.start_minute, log.bytes) == TowerWindow::Apply::kStale)
        ++stale;
      if (tracing && sampler.sampled(record_hash(log))) {
        const double applied_us = obs::now_us();
        trace.record_complete(
            "record.apply", "stream", entry.offered_us,
            applied_us - entry.offered_us,
            "\"tower\":" + std::to_string(log.tower_id) +
                ",\"user\":" + std::to_string(log.user_id) +
                ",\"start_minute\":" + std::to_string(log.start_minute));
        if (shard.sampled_awaiting.size() < kMaxSampledAwaiting)
          shard.sampled_awaiting.emplace_back(log.tower_id, applied_us);
      }
    }
  }
  // Offer-to-apply latency: records queued by one offer_batch call share
  // an offer stamp, so one observe_n per run of equal stamps covers every
  // record at per-batch cost.
  const double applied_us = obs::now_us();
  for (std::size_t i = 0; i < batch.size();) {
    std::size_t j = i + 1;
    while (j < batch.size() && batch[j].offered_us == batch[i].offered_us) ++j;
    metric_apply_ms_->observe_n((applied_us - batch[i].offered_us) / 1000.0,
                                j - i);
    i = j;
  }
  // The batch is in arrival order, so its first stamp is the oldest;
  // CAS-min it into the shard's unclassified frontier (0 = empty, so
  // clamp real stamps to >= 1).
  const std::uint64_t stamp = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(batch.front().offered_us));
  std::uint64_t seen = shard.oldest_unclassified_us.load(std::memory_order_relaxed);
  while ((seen == 0 || stamp < seen) &&
         !shard.oldest_unclassified_us.compare_exchange_weak(
             seen, stamp, std::memory_order_relaxed)) {
  }
  if (stale > 0) {
    stale_.fetch_add(stale, std::memory_order_relaxed);
    metric_stale_->add(stale);
  }
  metric_pending_->add(-static_cast<std::int64_t>(batch.size()));
}

void StreamIngestor::drain(ThreadPool& pool) {
  obs::ScopedTimer timer;
  // One task per shard; a pool rejection (bounded queue full) degrades to
  // draining that shard inline — caller-runs backpressure.
  std::vector<std::future<void>> futures;
  futures.reserve(shards_.size());
  std::size_t inline_drains = 0;
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->queue_mutex);
      if (shard->pending.empty()) continue;
    }
    Shard* target = shard.get();
    auto future = pool.try_submit([this, target] { drain_shard(*target); });
    if (future.has_value()) {
      futures.push_back(std::move(*future));
    } else {
      drain_shard(*target);
      ++inline_drains;
    }
  }
  for (auto& f : futures) f.get();
  metric_drains_->add(1);
  metric_drain_ms_->observe(timer.elapsed_ms());
  if (inline_drains > 0)
    obs::log_debug("stream.drain_backpressure",
                   {{"inline_shards", inline_drains}});
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
  stats.low_watermark_minute =
      low_watermark_of(stats.watermark_minute, config_.max_lateness_minutes);
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
    stats.low_watermark_minute =
        low_watermark_of(stats.watermark_minute, config_.max_lateness_minutes);
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
  const auto it = std::lower_bound(
      shard.windows.begin(), shard.windows.end(), tower_id,
      [](const auto& entry, std::uint32_t id) { return entry.first < id; });
  if (it == shard.windows.end() || it->first != tower_id)
    throw InvalidArgument("no window for tower id " +
                          std::to_string(tower_id));
  return it->second;
}

TowerWindowStats StreamIngestor::window_stats(std::uint32_t tower_id) const {
  const Shard& shard = shard_of(tower_id);
  std::lock_guard<std::mutex> lock(shard.window_mutex);
  const auto it = std::lower_bound(
      shard.windows.begin(), shard.windows.end(), tower_id,
      [](const auto& entry, std::uint32_t id) { return entry.first < id; });
  if (it == shard.windows.end() || it->first != tower_id)
    throw InvalidArgument("no window for tower id " +
                          std::to_string(tower_id));
  const TowerWindow& window = it->second;
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
  const auto fold_one = [&](std::size_t i) {
    out[i] = {snapshot[i].first, snapshot[i].second.folded_week()};
  };
  if (pool != nullptr && pool->thread_count() > 1 && snapshot.size() > 1) {
    pool->parallel_for(snapshot.size(), fold_one);
  } else {
    for (std::size_t i = 0; i < snapshot.size(); ++i) fold_one(i);
  }
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
  TowerWindow& window = (window_in(shard, tower_id) =
                             TowerWindow::from_state(state));
  // Re-seed the shard's event-time progress from the restored window so
  // /stream shows a sane (bin-granular) watermark after a restore.
  const std::uint64_t restored = window.latest_minute();
  std::uint64_t seen = shard.watermark_minute.load(std::memory_order_relaxed);
  while (restored > seen &&
         !shard.watermark_minute.compare_exchange_weak(
             seen, restored, std::memory_order_relaxed)) {
  }
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
