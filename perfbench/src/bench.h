// Shared pieces of the end-to-end benchmark: command-line parsing, the
// result line, sample statistics, the host block and the in-memory span
// recorder used by traced runs.
//
// Every workload is a function of (Args, Outcome&, SpanRecorder*). It sets
// up its fixtures, measures for Args::seconds, checks its outputs, and
// fills the Outcome; with a recorder it also records spans around the calls
// it makes into each CellScope module. Spans are recorded only from the
// benchmark's own code — nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A malformed command line: reported on stderr, exit code 2, no result.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint32_t seconds = 0;
  bool trace = false;
  /// serve_live nominal request rate (req/s); the workload default when
  /// absent.
  std::optional<std::uint32_t> rate;
  /// Directory for the trace file, snapshots and span dumps.
  std::string out_dir = ".";
};

/// Parses `--workload W --seed N --seconds N --trace 0|1 [--rate N]
/// [--out DIR]`. Numbers go through checked std::from_chars: junk,
/// trailing characters, overflow, out-of-range values, unknown or repeated
/// flags all throw UsageError.
Args parse_args(int argc, char** argv);

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

/// Quantile q in [0, 1] of `samples` (linear interpolation between
/// closest ranks, as numpy's default); 0 for an empty set.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the result line and the human-readable lines
/// printed before it.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metrics of the result line (end-to-end untraced, per-layer traced).
  std::map<std::string, Metric> metrics;
  /// Named figures printed above the result line, in insertion order.
  std::vector<std::pair<std::string, Metric>> report;

  /// Records a failed correctness check (the run then reports no metrics).
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, std::string unit) {
    metrics[name] = Metric{value, std::move(unit)};
  }
  void note(const std::string& name, double value, std::string unit) {
    report.emplace_back(name, Metric{value, std::move(unit)});
  }
};

/// Returns freed heap to the system and restarts the peak-RSS count, so
/// peak_rss_mb() covers the measured phase, not the set-up before it.
void reset_peak_rss();
/// Peak resident set size (VmHWM) of this process since the last
/// reset_peak_rss(), in MB.
double peak_rss_mb();

/// One-line JSON object describing the host: CPU model, nproc, detected
/// and active SIMD ISA, and the pool sizes the workloads use.
std::string host_json();

/// Query-server workers, client connections and ingest shards. The
/// analytics/ingest pool takes configured_thread_count() workers
/// (CELLSCOPE_THREADS or the core count), as the library does.
inline constexpr std::size_t kServerWorkers = 4;
inline constexpr std::size_t kClientConnections = 4;
inline constexpr std::size_t kStreamShards = 4;

/// Median of `reps` timed calls of `setup` (seconds): set-up is repeated so
/// setup_s is a median, and the last call's products are the ones kept.
template <typename F>
double timed_setup(int reps, F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  return median(std::move(times));
}
inline constexpr int kSetupReps = 3;

/// In-memory span recorder for traced runs. Spans nest by call order on
/// the thread that records them (one thread only); each span keeps its
/// name, start, end and parent, and the whole set is written out once at
/// exit.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
    long parent = -1;  ///< index of the enclosing span, -1 for a root
  };

  std::size_t open(std::string_view name);
  void close(std::size_t id);

  /// Summed duration (ms) of every span called `name`.
  double total_ms(std::string_view name) const;
  /// Durations (µs) of every span called `name`, in recording order.
  std::vector<double> durations_us(std::string_view name) const;
  /// Share of the spans called `root` that none of their direct children
  /// covers: (sum root − sum children) / sum root.
  double uncovered_share(std::string_view root) const;

  /// Writes {"host": ..., "spans": [...]} to `path`.
  void write_json(const std::string& path, const std::string& host) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->open(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t id_;
};

/// Sets `<name>.p50` and `<name>.p99` from samples.
void set_p50_p99(Outcome& out, const std::string& name,
                 const std::vector<double>& samples, const std::string& unit);

/// Workloads. `recorder` is null for untraced runs.
void run_train_city(const Args& args, Outcome& out, SpanRecorder* recorder);
void run_replay_city(const Args& args, Outcome& out, SpanRecorder* recorder);
void run_serve_live(const Args& args, Outcome& out, SpanRecorder* recorder);

}  // namespace perfbench
