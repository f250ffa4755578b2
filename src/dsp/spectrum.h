// Traffic frequency spectra and principal-component reconstruction.
//
// The paper (§5.1) observes that the aggregate traffic DFT has three
// dominant components — k = 4 (one week), k = 28 (one day), k = 56 (half a
// day) over the 4-week / 4032-sample grid — and that reconstructing from
// just these (plus DC and conjugates) loses under 6 % of signal energy.
// Every consumer reads a handful of bins (the features three, Fig. 13 up
// to k = 100), so this module evaluates the requested DFT bins directly
// instead of transforming the whole series, and builds band-limited
// reconstructions and energy-loss accounting on top of that one routine.
//
// Convention: X[k] = Σ_t x[t]·e^{−2πikt/N} (no scaling); reconstruction
// divides by N, so keeping every bin returns the series.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace cellscope {

using Complex = std::complex<double>;

/// The paper's three principal frequency indices on the 4032-slot grid.
inline constexpr std::size_t kWeeklyComponent = 4;     ///< period = 1 week
inline constexpr std::size_t kDailyComponent = 28;     ///< period = 1 day
inline constexpr std::size_t kHalfDailyComponent = 56; ///< period = 1/2 day

/// DFT coefficients X[k] of a real series, one per entry of `bins`, in
/// `bins` order; every k must be < N = series.size() (N >= 1). One pass
/// over the series against the table of the N roots of unity, the table
/// index (k·t) mod N stepped as an exact integer. Each bin sums in
/// ascending t, so the result is the same on every ISA and pool size.
/// O(N · bins.size()). The table is built on the first call for each N
/// and shared by every later call and thread (16 B × N, kept until exit);
/// reconstruct() reads the same tables.
std::vector<Complex> dft_bins(std::span<const double> series,
                              std::span<const std::size_t> bins);

/// 2|X[k]|/N — amplitude in the units of the time series (a pure
/// sinusoid a·cos(...) of length N yields `a` at its frequency). Used for
/// the Fig. 13 variance spectrum and the Fig. 15/16 features.
inline double normalized_amplitude(const Complex& coefficient, std::size_t n) {
  return 2.0 * std::abs(coefficient) / static_cast<double>(n);
}

/// Reconstructs the series keeping only DC, the given frequency indices
/// and their conjugate mirrors N − k — the paper's Xr (§5.1).
std::vector<double> reconstruct(std::span<const double> series,
                                std::span<const std::size_t> keep);

/// Reconstruction from the paper's three principal components.
std::vector<double> reconstruct_principal(std::span<const double> series);

/// Relative energy loss |E(x) - E(xr)| / E(x) of a reconstruction
/// (the paper reports < 6 % for the principal reconstruction).
double energy_loss(std::span<const double> original,
                   std::span<const double> reconstructed);

}  // namespace cellscope
