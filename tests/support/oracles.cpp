#include "support/oracles.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/time_grid.h"
#include "opt/linalg.h"

namespace cellscope {

bool check_simplex_kkt(const std::vector<std::vector<double>>& components,
                       const std::vector<double>& target,
                       const std::vector<double>& x, double tol) {
  const std::size_t m = components.size();
  CS_CHECK_MSG(x.size() == m, "solution size mismatch");
  Matrix a(target.size(), m);
  for (std::size_t c = 0; c < m; ++c) {
    CS_CHECK_MSG(components[c].size() == target.size(),
                 "component dimension mismatch");
    for (std::size_t r = 0; r < target.size(); ++r)
      a.at(r, c) = components[c][r];
  }
  const Matrix gram = a.gram();
  const auto atb = a.multiply_transposed(target);

  double total = 0.0;
  for (const double v : x) {
    if (v < -tol) return false;
    total += v;
  }
  if (std::fabs(total - 1.0) > tol) return false;

  // Gradient; on the support all entries must equal the multiplier λ; off
  // the support they must be >= λ.
  std::vector<double> grad(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double gx = 0.0;
    for (std::size_t j = 0; j < m; ++j) gx += gram.at(i, j) * x[j];
    grad[i] = 2.0 * (gx - atb[i]);
  }
  double lambda = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < m; ++i)
    if (x[i] > tol) lambda = std::min(lambda, grad[i]);
  for (std::size_t i = 0; i < m; ++i) {
    if (x[i] > tol &&
        std::fabs(grad[i] - lambda) > tol * (1.0 + std::fabs(lambda)))
      return false;
    if (x[i] <= tol && grad[i] < lambda - tol * (1.0 + std::fabs(lambda)))
      return false;
  }
  return true;
}

std::array<std::size_t, kNumRegions> region_histogram(
    const std::vector<Tower>& towers) {
  std::array<std::size_t, kNumRegions> h{};
  for (const auto& t : towers) ++h[static_cast<int>(t.true_region)];
  return h;
}

std::vector<std::vector<double>> emitted_clean_bytes(
    const std::vector<TrafficLog>& logs, std::size_t n_towers) {
  std::vector<std::vector<double>> clean(
      n_towers, std::vector<double>(TimeGrid::kSlots, 0.0));
  const TrafficLog* original = nullptr;
  for (const auto& log : logs) {
    if (original != nullptr && log.user_id == original->user_id &&
        log.tower_id == original->tower_id &&
        log.start_minute == original->start_minute)
      continue;
    CS_CHECK_MSG(log.tower_id < n_towers, "tower id out of range");
    const std::size_t slot = log.start_minute / TimeGrid::kSlotMinutes;
    CS_CHECK_MSG(slot < TimeGrid::kSlots, "start minute past the grid");
    clean[log.tower_id][slot] += static_cast<double>(log.bytes);
    original = &log;
  }
  return clean;
}

TraceOptions coarse_days(int day_end) {
  TraceOptions options;
  options.mean_session_bytes = 2.0e6;
  options.day_begin = 0;
  options.day_end = day_end;
  return options;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace obs {

CheckResult check_zscore_rows(const std::vector<std::vector<double>>& rows,
                              double tolerance) {
  std::vector<double> deviations(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r)
    deviations[r] = zscore_row_deviation(rows[r]);
  return check_zscore_worst(worst_deviation(deviations), tolerance);
}

}  // namespace obs
}  // namespace cellscope
