// Frequency-domain tower features — §5.2 of the paper.
//
// For every tower, the amplitude and phase of the three principal DFT
// components (week / day / half-day) of its z-scored traffic vector.
// These six numbers are the coordinates of the Fig. 15 scatter plots; the
// (A28, P28, A56) triple is the feature space of the Fig. 17 polygon and
// of the §5.3 convex component analysis.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "dsp/spectrum.h"

namespace cellscope {

class ThreadPool;

/// Amplitude/phase of the three principal components of one tower.
struct FreqFeatures {
  double amp_week = 0.0;    ///< A4  — normalized amplitude at k=4
  double phase_week = 0.0;  ///< P4  — phase at k=4, in (-π, π]
  double amp_day = 0.0;     ///< A28
  double phase_day = 0.0;   ///< P28
  double amp_half_day = 0.0;   ///< A56
  double phase_half_day = 0.0; ///< P56

  /// The paper's §5.3 component-analysis feature (A28, P28, A56).
  std::array<double, 3> qp_feature() const {
    return {amp_day, phase_day, amp_half_day};
  }
};

/// Extracts the features of one z-scored traffic series: the 4032-slot
/// grid, or one 1008-slot week, read as its own four-fold tiling (bins
/// k·N/4032 — 1, 7 and 14 on a week). Any other length throws.
FreqFeatures compute_freq_features(std::span<const double> zscored_series);

/// Batch extraction for all rows. Rows are independent, so a pool
/// parallelizes the per-tower spectra with bit-identical output.
std::vector<FreqFeatures> compute_freq_features(
    const std::vector<std::vector<double>>& zscored_rows,
    ThreadPool* pool = nullptr);

/// Per-frequency variance of normalized DFT amplitude across towers — the
/// Fig. 13 series. `max_k` limits the frequency range (the paper plots
/// k <= 100). Per-tower spectra are pooled when a pool is given;
/// output is bit-identical either way.
std::vector<double> amplitude_variance_spectrum(
    const std::vector<std::vector<double>>& zscored_rows, std::size_t max_k,
    ThreadPool* pool = nullptr);

/// Circular mean of phases (vector averaging; phases near ±π average
/// correctly, unlike the arithmetic mean).
double circular_mean(std::span<const double> phases);

/// Circular standard deviation of phases.
double circular_stddev(std::span<const double> phases);

}  // namespace cellscope
