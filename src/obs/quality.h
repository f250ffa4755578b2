// Data-quality sentinels — named invariant checks at stage boundaries.
//
// The pipeline's failure modes are silent: a NaN row, a degenerate
// cluster, or spectral energy leaking out of the paper's three components
// corrupts every downstream figure without crashing. A sentinel is a
// named invariant check with a severity, recorded by the stage that
// computes the guarded value, inside that stage's StageSpan. Every
// record() yields a QualityVerdict that feeds the cellscope.quality.*
// counters, one structured log line, and the run report (obs/report.h).
//
// The check helpers at the bottom are pure functions over plain vectors
// so this layer stays dependency-free; callers that need domain math
// (DFT energy, DBI) compute the scalar and pass it to the helper.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cellscope::obs {

/// Escalation level of a *violated* check (a passing check always logs
/// at debug and only bumps the passed counter).
enum class Severity { kInfo = 0, kWarn = 1, kFail = 2 };

/// Canonical lowercase name ("info" / "warn" / "fail").
std::string_view severity_name(Severity severity);

/// Outcome of one invariant evaluation, before it is attributed to a
/// stage and severity.
struct CheckResult {
  bool passed = true;
  double value = 0.0;  ///< the measured quantity (deviation, count, ...)
  std::string detail;  ///< human-readable summary
};

/// One recorded sentinel outcome.
struct QualityVerdict {
  std::string check;   ///< invariant name, e.g. "matrix_finite"
  std::string stage;   ///< stage it guards, e.g. "pipeline.vectorize"
  Severity severity = Severity::kFail;
  bool passed = true;
  double value = 0.0;
  std::string detail;
};

/// Process-global verdict log. record() evaluates nothing: the caller
/// runs the check where its value is computed and hands in the result.
/// The newest kMaxStoredVerdicts verdicts are kept; older ones are
/// dropped (and counted) while the tallies stay exact.
class QualityBoard {
 public:
  /// Singleton; intentionally leaked so verdicts recorded during static
  /// destruction stay safe (same rule as MetricsRegistry).
  static QualityBoard& instance();

  static constexpr std::size_t kMaxStoredVerdicts = 1024;

  /// Records the outcome of `check` guarding `stage`. `severity` is the
  /// escalation applied if the check failed.
  void record(std::string_view stage, std::string_view check,
              Severity severity, CheckResult result);

  std::vector<QualityVerdict> verdicts() const;  ///< oldest first
  std::size_t passed() const;
  std::size_t warned() const;  ///< violated at info/warn severity
  std::size_t failed() const;  ///< violated at fail severity
  std::size_t dropped() const;  ///< evicted from the stored verdicts
  bool ok() const { return failed() == 0; }

  /// JSON array of every stored verdict (oldest first).
  std::string verdicts_json() const;

  /// Drops all stored verdicts and tallies (tests, run isolation).
  void clear();

  QualityBoard(const QualityBoard&) = delete;
  QualityBoard& operator=(const QualityBoard&) = delete;

 private:
  QualityBoard() = default;

  mutable std::mutex mutex_;
  std::deque<QualityVerdict> verdicts_;
  std::size_t dropped_ = 0;
  std::size_t passed_ = 0;
  std::size_t warned_ = 0;
  std::size_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Invariant helpers. Each returns passed/value/detail; the caller picks
// stage and severity when recording.

/// Every element of every row is finite (no NaN/inf). value = number of
/// non-finite elements found.
CheckResult check_finite_rows(const std::vector<std::vector<double>>& rows);

/// The number of non-finite (NaN/inf) elements of one row.
std::size_t non_finite_count(std::span<const double> row);

/// check_finite_rows from per-row non_finite_counts, for a caller that
/// scans the rows one block at a time and never holds them all: the same
/// passed, value and detail (the first row with a non-finite element).
CheckResult check_finite_counts(std::span<const std::size_t> per_row);

/// One row's distance from z-score normalization: max(|mean|, |sd - 1|),
/// or |mean| alone for a constant row (sd 0); 0 for an empty row and
/// +inf when either moment is not finite.
double zscore_row_deviation(std::span<const double> row);

/// The largest of per-row deviations and its row index. Strict `>`
/// against a running worst that starts at 0, so the first row wins ties
/// and all-zero deviations report row 0.
struct WorstDeviation {
  double value = 0.0;
  std::size_t row = 0;
};
WorstDeviation worst_deviation(std::span<const double> deviations);

/// The zscore_normalized verdict for an already-reduced worst deviation:
/// passed when value <= tolerance; the detail names the row.
CheckResult check_zscore_worst(WorstDeviation worst, double tolerance = 1e-6);

/// The smallest cluster in `labels` has at least `min_size` members.
/// value = smallest population.
CheckResult check_min_population(const std::vector<int>& labels,
                                 std::size_t min_size);

/// A Davies-Bouldin index is sane: finite and strictly positive.
/// value = the index.
CheckResult check_dbi(double dbi);

/// At least `min_fraction` of signal energy survives the principal-
/// component reconstruction (the paper's <6 % loss claim, §5.1).
/// `retained_fraction` is computed by the caller; value echoes it.
CheckResult check_energy_fraction(double retained_fraction,
                                  double min_fraction = 0.94);

/// Convex-combination weights lie on the probability simplex:
/// sum == 1 within `tolerance`, every weight >= -tolerance.
/// value = worst constraint violation.
CheckResult check_simplex_weights(std::span<const double> weights,
                                  double tolerance = 1e-6);

/// At most `max_fraction` of `total` items were rejected (malformed trace
/// lines, dropped stream records, ...). A zero total passes trivially.
/// value = the reject ratio.
CheckResult check_reject_ratio(std::size_t rejected, std::size_t total,
                               double max_fraction = 0.01);

}  // namespace cellscope::obs
