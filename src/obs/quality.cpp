#include "obs/quality.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "common/error.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace cellscope::obs {

namespace {

/// Storage cap: a bench looping Experiment::run thousands of times must
/// not grow the verdict log without bound; the counts stay exact.
constexpr std::size_t kMaxStoredVerdicts = 1024;

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string_view severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kFail:
      return "fail";
  }
  return "fail";
}

QualityBoard& QualityBoard::instance() {
  static QualityBoard* board = new QualityBoard;  // never destroyed
  return *board;
}

void QualityBoard::add_check(std::string_view stage, std::string_view name,
                             Severity severity, CheckFn fn) {
  CS_CHECK_MSG(static_cast<bool>(fn), "quality check needs a callable");
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.push_back(Pending{std::string(stage), std::string(name), severity,
                             std::move(fn)});
}

std::size_t QualityBoard::evaluate_stage(std::string_view stage) noexcept {
  // Pull the stage's checks out under the lock, run them outside it (a
  // check may legitimately touch the registry or log).
  std::vector<Pending> due;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->stage == stage) {
        due.push_back(std::move(*it));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& pending : due) {
    QualityVerdict verdict;
    verdict.check = std::move(pending.name);
    verdict.stage = std::move(pending.stage);
    verdict.severity = pending.severity;
    try {
      const CheckResult result = pending.fn();
      verdict.passed = result.passed;
      verdict.value = result.value;
      verdict.detail = result.detail;
    } catch (const std::exception& e) {
      verdict.passed = false;
      verdict.severity = Severity::kFail;
      verdict.detail = std::string("check threw: ") + e.what();
    } catch (...) {
      verdict.passed = false;
      verdict.severity = Severity::kFail;
      verdict.detail = "check threw a non-standard exception";
    }
    try {
      record(std::move(verdict));
    } catch (...) {
      // Recording must never propagate out of a destructor-driven
      // evaluation; the counters may be momentarily short.
    }
  }
  return due.size();
}

void QualityBoard::record(QualityVerdict verdict) {
  auto& registry = MetricsRegistry::instance();
  LogLevel level = LogLevel::kDebug;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (verdict.passed) {
      ++passed_;
    } else if (verdict.severity == Severity::kFail) {
      ++failed_;
      level = LogLevel::kError;
    } else {
      ++warned_;
      level = verdict.severity == Severity::kWarn ? LogLevel::kWarn
                                                  : LogLevel::kInfo;
    }
  }
  registry
      .counter(verdict.passed ? "cellscope.quality.checks_passed"
               : verdict.severity == Severity::kFail
                   ? "cellscope.quality.checks_failed"
                   : "cellscope.quality.checks_warned")
      .add(1);
  log_event(level, "quality.check",
            {{"check", verdict.check},
             {"stage", verdict.stage},
             {"severity", severity_name(verdict.severity)},
             {"passed", verdict.passed},
             {"value", verdict.value},
             {"detail", verdict.detail}});
  std::lock_guard<std::mutex> lock(mutex_);
  if (verdicts_.size() >= kMaxStoredVerdicts)
    ++dropped_;
  else
    verdicts_.push_back(std::move(verdict));
}

std::vector<QualityVerdict> QualityBoard::verdicts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return verdicts_;
}

std::size_t QualityBoard::pending_checks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

std::size_t QualityBoard::passed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return passed_;
}

std::size_t QualityBoard::warned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return warned_;
}

std::size_t QualityBoard::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::string QualityBoard::verdicts_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string json = "[";
  bool first = true;
  for (const auto& v : verdicts_) {
    if (!first) json += ',';
    first = false;
    json += "{\"check\":\"" + json_escape(v.check) + "\",\"stage\":\"" +
            json_escape(v.stage) + "\",\"severity\":\"" +
            std::string(severity_name(v.severity)) +
            "\",\"passed\":" + (v.passed ? "true" : "false") +
            ",\"value\":" +
            (std::isfinite(v.value) ? format_value(v.value) : "null") +
            ",\"detail\":\"" +
            json_escape(v.detail) + "\"}";
  }
  json += "]";
  return json;
}

void QualityBoard::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.clear();
  verdicts_.clear();
  dropped_ = 0;
  passed_ = warned_ = failed_ = 0;
}

// ---------------------------------------------------------------------------

CheckResult check_finite_rows(const std::vector<std::vector<double>>& rows) {
  std::size_t bad = 0;
  std::size_t first_row = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const double v : rows[r]) {
      if (!std::isfinite(v)) {
        if (bad == 0) first_row = r;
        ++bad;
      }
    }
  }
  CheckResult result;
  result.passed = bad == 0;
  result.value = static_cast<double>(bad);
  result.detail =
      bad == 0 ? "all " + std::to_string(rows.size()) + " rows finite"
               : std::to_string(bad) + " non-finite values (first in row " +
                     std::to_string(first_row) + ")";
  return result;
}

double zscore_row_deviation(std::span<const double> row) {
  if (row.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : row) sum += v;
  const double mean = sum / static_cast<double>(row.size());
  double var = 0.0;
  for (const double v : row) var += (v - mean) * (v - mean);
  const double sd = std::sqrt(var / static_cast<double>(row.size()));
  double deviation = std::abs(mean);
  // A constant raw row z-scores to all zeros (sd 0); only non-degenerate
  // rows must sit at unit variance.
  if (sd != 0.0) deviation = std::max(deviation, std::abs(sd - 1.0));
  if (!std::isfinite(deviation))
    deviation = std::numeric_limits<double>::infinity();
  return deviation;
}

WorstDeviation worst_deviation(std::span<const double> deviations) {
  WorstDeviation worst;
  for (std::size_t r = 0; r < deviations.size(); ++r) {
    if (deviations[r] > worst.value) {
      worst.value = deviations[r];
      worst.row = r;
    }
  }
  return worst;
}

CheckResult check_zscore_worst(WorstDeviation worst, double tolerance) {
  CheckResult result;
  result.passed = worst.value <= tolerance;
  result.value = worst.value;
  result.detail = "worst |mean| / |sd-1| deviation " +
                  format_value(worst.value) + " (row " +
                  std::to_string(worst.row) + "), tolerance " +
                  format_value(tolerance);
  return result;
}

CheckResult check_min_population(const std::vector<int>& labels,
                                 std::size_t min_size) {
  std::map<int, std::size_t> population;
  for (const int label : labels) ++population[label];
  std::size_t smallest = labels.size();
  int smallest_label = -1;
  for (const auto& [label, count] : population) {
    if (count < smallest) {
      smallest = count;
      smallest_label = label;
    }
  }
  CheckResult result;
  result.passed = !population.empty() && smallest >= min_size;
  result.value = static_cast<double>(population.empty() ? 0 : smallest);
  result.detail =
      population.empty()
          ? "no labels"
          : "smallest cluster " + std::to_string(smallest_label) + " has " +
                std::to_string(smallest) + " members (floor " +
                std::to_string(min_size) + ")";
  return result;
}

CheckResult check_dbi(double dbi) {
  CheckResult result;
  result.passed = std::isfinite(dbi) && dbi > 0.0;
  result.value = dbi;
  result.detail = result.passed
                      ? "DBI " + format_value(dbi)
                      : "degenerate DBI " + format_value(dbi) +
                            " (expected finite and > 0)";
  return result;
}

CheckResult check_energy_fraction(double retained_fraction,
                                  double min_fraction) {
  CheckResult result;
  result.passed =
      std::isfinite(retained_fraction) && retained_fraction >= min_fraction;
  result.value = retained_fraction;
  result.detail = "principal components retain " +
                  format_value(retained_fraction * 100.0) +
                  "% of signal energy (floor " +
                  format_value(min_fraction * 100.0) + "%)";
  return result;
}

CheckResult check_simplex_weights(std::span<const double> weights,
                                  double tolerance) {
  double sum = 0.0;
  double worst = 0.0;
  for (const double w : weights) {
    sum += w;
    if (-w > worst) worst = -w;  // negativity violation
  }
  const double sum_violation =
      weights.empty() ? 1.0 : std::abs(sum - 1.0);
  worst = std::max(worst, sum_violation);
  if (!std::isfinite(worst)) worst = std::numeric_limits<double>::infinity();
  CheckResult result;
  result.passed = worst <= tolerance;
  result.value = worst;
  result.detail = "sum " + format_value(sum) + ", worst violation " +
                  format_value(worst) + ", tolerance " +
                  format_value(tolerance);
  return result;
}

CheckResult check_reject_ratio(std::size_t rejected, std::size_t total,
                               double max_fraction) {
  const double ratio =
      total == 0 ? 0.0
                 : static_cast<double>(rejected) / static_cast<double>(total);
  CheckResult result;
  result.passed = ratio <= max_fraction;
  result.value = ratio;
  result.detail = std::to_string(rejected) + " of " + std::to_string(total) +
                  " rejected (ratio " + format_value(ratio) + ", max " +
                  format_value(max_fraction) + ")";
  return result;
}

}  // namespace cellscope::obs
