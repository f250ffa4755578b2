#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace cellscope {

double mean(std::span<const double> v) {
  CS_CHECK_MSG(!v.empty(), "mean of empty vector");
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(std::span<const double> v) {
  CS_CHECK_MSG(!v.empty(), "variance of empty vector");
  const double m = mean(v);
  double s = 0.0;
  for (const double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double stddev(std::span<const double> v) { return std::sqrt(variance(v)); }

double max_value(std::span<const double> v) {
  CS_CHECK_MSG(!v.empty(), "max of empty vector");
  return *std::max_element(v.begin(), v.end());
}

std::size_t argmin(std::span<const double> v) {
  CS_CHECK_MSG(!v.empty(), "argmin of empty vector");
  return static_cast<std::size_t>(
      std::min_element(v.begin(), v.end()) - v.begin());
}

std::size_t argmax(std::span<const double> v) {
  CS_CHECK_MSG(!v.empty(), "argmax of empty vector");
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

double sum(std::span<const double> v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double quantile(std::span<const double> v, double q) {
  CS_CHECK_MSG(!v.empty(), "quantile of empty vector");
  CS_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile requires q in [0, 1]");
  std::vector<double> sorted(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double pearson(std::span<const double> a, std::span<const double> b) {
  CS_CHECK_MSG(a.size() == b.size() && !a.empty(),
               "pearson requires equal non-empty vectors");
  const double ma = mean(a);
  const double mb = mean(b);
  double sab = 0.0;
  double saa = 0.0;
  double sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  CS_CHECK_MSG(saa > 0.0 && sbb > 0.0, "pearson of constant vector");
  return sab / std::sqrt(saa * sbb);
}

std::vector<double> zscore(std::span<const double> v) {
  CS_CHECK_MSG(!v.empty(), "zscore of empty vector");
  const double m = mean(v);
  const double sd = stddev(v);
  std::vector<double> out(v.size());
  if (sd == 0.0) return out;  // constant vector -> all zeros
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - m) / sd;
  return out;
}

std::vector<double> max_normalize(std::span<const double> v) {
  CS_CHECK_MSG(!v.empty(), "max_normalize of empty vector");
  const double hi = max_value(v);
  std::vector<double> out(v.size());
  if (hi <= 0.0) return out;
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] / hi;
  return out;
}

std::vector<std::pair<double, double>> empirical_cdf(std::span<const double> v,
                                                     std::size_t n_points) {
  CS_CHECK_MSG(!v.empty(), "empirical_cdf of empty vector");
  CS_CHECK_MSG(n_points >= 2, "empirical_cdf requires n_points >= 2");
  std::vector<double> sorted(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end());
  const double lo = sorted.front();
  const double hi = sorted.back();
  std::vector<std::pair<double, double>> out;
  out.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n_points - 1);
    const auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
    const double f = static_cast<double>(it - sorted.begin()) /
                     static_cast<double>(sorted.size());
    out.emplace_back(x, f);
  }
  return out;
}

std::vector<double> circular_moving_average(std::span<const double> v,
                                            std::size_t half_window) {
  CS_CHECK_MSG(!v.empty(), "moving average of empty vector");
  const auto n = v.size();
  std::vector<double> out(n);
  const auto w = static_cast<std::ptrdiff_t>(half_window);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::ptrdiff_t d = -w; d <= w; ++d) {
      const auto j = (static_cast<std::ptrdiff_t>(i + n) + d) %
                     static_cast<std::ptrdiff_t>(n);
      s += v[static_cast<std::size_t>(j)];
    }
    out[i] = s / static_cast<double>(2 * w + 1);
  }
  return out;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  CS_CHECK_MSG(a.size() == b.size(), "distance of unequal vectors");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double euclidean_distance(std::span<const double> a,
                          std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

}  // namespace cellscope
