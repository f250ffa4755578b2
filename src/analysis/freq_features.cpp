#include "analysis/freq_features.h"

#include <cmath>
#include <numeric>

#include "common/error.h"
#include "common/stats.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"

namespace cellscope {

FreqFeatures compute_freq_features(std::span<const double> zscored_series) {
  const std::size_t n = zscored_series.size();
  CS_CHECK_MSG(n == TimeGrid::kSlots || n == TimeGrid::kSlotsPerWeek,
               "frequency features need a 4032-slot series or a 1008-slot "
               "week");
  // A week's bin k/4 is a quarter of its four-fold tiling's bin k, and
  // the week is a quarter as long: same normalized amplitude and phase.
  const std::size_t scale = TimeGrid::kSlots / n;
  const std::size_t bins[] = {kWeeklyComponent / scale,
                              kDailyComponent / scale,
                              kHalfDailyComponent / scale};
  const auto x = dft_bins(zscored_series, bins);
  FreqFeatures f;
  f.amp_week = normalized_amplitude(x[0], n);
  f.phase_week = std::arg(x[0]);
  f.amp_day = normalized_amplitude(x[1], n);
  f.phase_day = std::arg(x[1]);
  f.amp_half_day = normalized_amplitude(x[2], n);
  f.phase_half_day = std::arg(x[2]);
  return f;
}

std::vector<FreqFeatures> compute_freq_features(
    const std::vector<std::vector<double>>& zscored_rows, ThreadPool* pool) {
  std::vector<FreqFeatures> out(zscored_rows.size());
  for_each_index(pool, zscored_rows.size(), [&](std::size_t i) {
    out[i] = compute_freq_features(zscored_rows[i]);
  });
  return out;
}

std::vector<double> amplitude_variance_spectrum(
    const std::vector<std::vector<double>>& zscored_rows, std::size_t max_k,
    ThreadPool* pool) {
  CS_CHECK_MSG(!zscored_rows.empty(), "need at least one row");
  CS_CHECK_MSG(max_k < TimeGrid::kSlots, "max_k out of range");
  const std::size_t n = zscored_rows.size();
  std::vector<std::vector<double>> amp_by_k(
      max_k + 1, std::vector<double>(n, 0.0));
  std::vector<std::size_t> bins(max_k + 1);
  std::iota(bins.begin(), bins.end(), std::size_t{0});
  // Each worker owns column i across every frequency row — disjoint slots.
  for_each_index(pool, n, [&](std::size_t i) {
    const auto x = dft_bins(zscored_rows[i], bins);
    for (std::size_t k = 0; k <= max_k; ++k)
      amp_by_k[k][i] = normalized_amplitude(x[k], zscored_rows[i].size());
  });
  std::vector<double> var(max_k + 1, 0.0);
  for_each_index(pool, max_k + 1,
                 [&](std::size_t k) { var[k] = variance(amp_by_k[k]); });
  return var;
}

double circular_mean(std::span<const double> phases) {
  CS_CHECK_MSG(!phases.empty(), "circular mean of empty set");
  double s = 0.0;
  double c = 0.0;
  for (const double p : phases) {
    s += std::sin(p);
    c += std::cos(p);
  }
  return std::atan2(s, c);
}

double circular_stddev(std::span<const double> phases) {
  CS_CHECK_MSG(!phases.empty(), "circular stddev of empty set");
  double s = 0.0;
  double c = 0.0;
  for (const double p : phases) {
    s += std::sin(p);
    c += std::cos(p);
  }
  const double n = static_cast<double>(phases.size());
  const double r = std::sqrt(s * s + c * c) / n;
  // Mardia's definition: sqrt(-2 ln R); 0 when all phases agree.
  return r > 0.0 ? std::sqrt(std::max(0.0, -2.0 * std::log(r)))
                 : std::sqrt(-2.0 * std::log(1e-12));
}

}  // namespace cellscope
