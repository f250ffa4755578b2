#include "dsp/spectrum.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "common/error.h"

namespace cellscope {

namespace {

/// e^{−2πij/N} for j < N.
std::vector<Complex> build_roots(std::size_t n) {
  std::vector<Complex> roots(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle =
        -2.0 * M_PI * static_cast<double>(j) / static_cast<double>(n);
    roots[j] = Complex(std::cos(angle), std::sin(angle));
  }
  return roots;
}

/// The table for length N, built on first use and kept for the life of
/// the process. Map nodes never move and entries are never erased or
/// modified once inserted, so the returned reference stays valid and
/// readable without the lock.
const std::vector<Complex>& roots_of_unity(std::size_t n) {
  static std::mutex mutex;
  static std::map<std::size_t, std::vector<Complex>> tables;
  const std::lock_guard lock(mutex);
  auto it = tables.find(n);
  if (it == tables.end()) it = tables.emplace(n, build_roots(n)).first;
  return it->second;
}

/// Steps a bin's table index from (k·t) mod N to (k·(t+1)) mod N.
void advance(std::size_t& index, std::size_t k, std::size_t n) {
  index += k;
  if (index >= n) index -= n;
}

std::vector<Complex> evaluate(std::span<const double> series,
                              std::span<const std::size_t> bins,
                              const std::vector<Complex>& roots) {
  const std::size_t n = series.size();
  std::vector<Complex> out(bins.size());
  std::vector<std::size_t> index(bins.size(), 0);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t b = 0; b < bins.size(); ++b) {
      out[b] += series[t] * roots[index[b]];
      advance(index[b], bins[b], n);
    }
  }
  return out;
}

void check_bins(std::size_t n, std::span<const std::size_t> bins) {
  CS_CHECK_MSG(n > 0, "dft of empty series");
  for (const std::size_t k : bins)
    CS_CHECK_MSG(k < n, "frequency index out of range");
}

}  // namespace

std::vector<Complex> dft_bins(std::span<const double> series,
                              std::span<const std::size_t> bins) {
  check_bins(series.size(), bins);
  return evaluate(series, bins, roots_of_unity(series.size()));
}

std::vector<double> reconstruct(std::span<const double> series,
                                std::span<const std::size_t> keep) {
  const std::size_t n = series.size();
  check_bins(n, keep);
  // DC, each kept bin and its conjugate mirror, each once.
  std::vector<std::size_t> bins = {0};
  for (const std::size_t k : keep) {
    bins.push_back(k);
    bins.push_back((n - k) % n);
  }
  std::sort(bins.begin(), bins.end());
  bins.erase(std::unique(bins.begin(), bins.end()), bins.end());

  const auto& roots = roots_of_unity(n);
  const auto coefficients = evaluate(series, bins, roots);
  // x[t] = Re Σ_k X[k]·e^{+2πikt/N} / N, with e^{+2πikt/N} = conj(root).
  std::vector<double> out(n);
  std::vector<std::size_t> index(bins.size(), 0);
  for (std::size_t t = 0; t < n; ++t) {
    double acc = 0.0;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      const Complex& w = roots[index[b]];
      acc += coefficients[b].real() * w.real() +
             coefficients[b].imag() * w.imag();
      advance(index[b], bins[b], n);
    }
    out[t] = acc / static_cast<double>(n);
  }
  return out;
}

std::vector<double> reconstruct_principal(std::span<const double> series) {
  const std::size_t keep[] = {kWeeklyComponent, kDailyComponent,
                              kHalfDailyComponent};
  return reconstruct(series, keep);
}

double signal_energy(std::span<const double> series) {
  double e = 0.0;
  for (const double x : series) e += x * x;
  return e;
}

double energy_loss(std::span<const double> original,
                   std::span<const double> reconstructed) {
  CS_CHECK_MSG(original.size() == reconstructed.size(),
               "series must have equal length");
  const double e = signal_energy(original);
  CS_CHECK_MSG(e > 0.0, "original series has zero energy");
  return std::fabs(e - signal_energy(reconstructed)) / e;
}

}  // namespace cellscope
