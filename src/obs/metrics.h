// Process-global metrics: named counters, gauges, and fixed-bucket
// histograms with a JSON snapshot export.
//
// Registration (name -> metric lookup) takes a mutex once; the returned
// references are stable for the process lifetime, so call sites cache
// them and the hot path is a relaxed atomic per update — safe to hammer
// from every worker thread. Names follow cellscope.<layer>.<name>
// (DESIGN.md §7).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cellscope::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (e.g. queue depth) with a high-watermark.
class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
    update_max(value);
  }
  void add(std::int64_t delta) noexcept {
    // High-watermark from the post-add level: fetch_add returns the prior
    // value, so prior + delta is exactly the level this add produced —
    // no re-read of value_, which another thread may have moved on.
    const std::int64_t post =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    update_max(post);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t max_value() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void update_max(std::int64_t candidate) noexcept {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket histogram with "less-or-equal" upper bounds (Prometheus
/// convention): observe(v) lands in the first bucket whose bound >= v,
/// or the overflow bucket when v exceeds every bound.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value) noexcept;

  /// Records `n` identical observations of `value` in one pass — the same
  /// three atomic updates as a single observe(), so batch producers (the
  /// stream ingestor's per-batch latency accounting) stay O(1) per batch
  /// instead of O(records).
  void observe_n(double value, std::uint64_t n) noexcept;

  /// Index of the bucket observe(value) would land in (the overflow
  /// bucket is bounds().size()).
  std::size_t bucket_of(double value) const noexcept;

  /// Merges a pre-aggregated cell into the histogram: `n` observations in
  /// `bucket` whose values sum to `value_sum`. The back door HistogramBatch
  /// flushes through; `bucket` must be <= upper_bounds().size().
  void merge_bucket(std::size_t bucket, std::uint64_t n,
                    double value_sum) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept;
  double mean() const noexcept;
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; the final entry is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside
  /// the bucket where the cumulative count crosses q·count — the
  /// Prometheus histogram_quantile estimator. The first bucket
  /// interpolates from min(0, bound); ranks landing in the overflow
  /// bucket clamp to the largest bound. Returns 0 on an empty histogram.
  double quantile(double q) const;

  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // bit-packed double (CAS add)
};

/// Wall-clock-millisecond bucket bounds shared by the stage/duration
/// histograms (0.1 ms .. 60 s).
std::vector<double> default_ms_buckets();

/// Power-of-two minute bounds (1, 2, 4, ... 65536) for event-time lag
/// histograms: bucket_of(lag) reduces to a bit_width, so hot ingest loops
/// can pre-bucket locally without a bounds search (see HistogramBatch).
std::vector<double> pow2_minute_buckets();

/// bucket_of() for a histogram built on pow2_minute_buckets(), computed
/// with one bit_width instead of a bounds search — agrees with
/// Histogram::bucket_of for every integer input (17 = overflow bucket).
inline std::size_t pow2_minute_bucket(std::uint64_t minutes) noexcept {
  if (minutes <= 1) return 0;
  const auto width = static_cast<std::size_t>(std::bit_width(minutes - 1));
  return width <= 16 ? width : 17;
}

/// Local, lock-free accumulator over one Histogram's bucket layout.
///
/// observe() touches only plain (non-atomic) cells; flush() merges every
/// dirty cell into the shared histogram with one merge_bucket() each —
/// turning per-record atomic traffic into per-batch traffic on hot paths.
/// Not thread-safe; make one per batch (or per thread) and flush before
/// the histogram is read.
class HistogramBatch {
 public:
  explicit HistogramBatch(Histogram& sink);
  ~HistogramBatch() { flush(); }

  void observe(double value) noexcept {
    observe_bucket(sink_.bucket_of(value), value);
  }
  /// For callers that computed the bucket themselves (e.g. via bit_width
  /// against pow2_minute_buckets()).
  void observe_bucket(std::size_t bucket, double value) noexcept {
    counts_[bucket] += 1;
    sums_[bucket] += value;
    pending_ += 1;
  }

  /// Observations accumulated locally and not yet flushed.
  std::uint64_t pending() const noexcept { return pending_; }

  void flush() noexcept;

  HistogramBatch(const HistogramBatch&) = delete;
  HistogramBatch& operator=(const HistogramBatch&) = delete;

 private:
  Histogram& sink_;
  std::vector<std::uint64_t> counts_;  // bounds + 1
  std::vector<double> sums_;
  std::uint64_t pending_ = 0;
};

/// Escapes a string for embedding inside a JSON string literal.
std::string json_escape(std::string_view s);

/// The process-global registry.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Finds or creates a metric; references stay valid for the process
  /// lifetime. For histograms the first registration fixes the buckets.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds);
  Histogram& histogram(std::string_view name) {
    return histogram(name, default_ms_buckets());
  }

  /// One JSON object with "counters", "gauges", and "histograms" keys.
  /// Ordering is deterministic — metrics appear sorted by name within
  /// each section — so snapshots diff cleanly across runs.
  std::string snapshot_json() const;

  /// Prometheus text exposition (version 0.0.4) of every metric, sorted
  /// globally by exposed name. Dots in metric names become underscores;
  /// gauges additionally expose their high-watermark as `<name>_max`;
  /// histograms follow the cumulative `_bucket{le=...}` / `_sum` /
  /// `_count` convention. Served by the query daemon's /metrics
  /// (server/query_service.h).
  std::string snapshot_prometheus() const;

  /// Zeroes every registered metric (tests and bench reports).
  void reset();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace cellscope::obs
