// Descriptive statistics and vector normalizations.
//
// The paper's vectorizer z-scores every tower's traffic vector (§3.2); that
// normalization lives here together with the summary statistics used by
// the analysis module.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cellscope {

/// Arithmetic mean. Requires a non-empty input.
double mean(std::span<const double> v);

/// Population variance (divides by N). Requires a non-empty input.
double variance(std::span<const double> v);

/// Population standard deviation.
double stddev(std::span<const double> v);

/// Largest element. Requires a non-empty input.
double max_value(std::span<const double> v);

/// Index of the smallest element (first on ties).
std::size_t argmin(std::span<const double> v);

/// Index of the largest element (first on ties).
std::size_t argmax(std::span<const double> v);

/// Sum of all elements (0 for empty input).
double sum(std::span<const double> v);

/// Linear-interpolated quantile, q in [0, 1]. Requires non-empty input.
double quantile(std::span<const double> v, double q);

/// Pearson correlation coefficient; inputs must have equal, non-zero length
/// and non-zero variance.
double pearson(std::span<const double> a, std::span<const double> b);

/// Z-score normalization: (x - mean) / stddev. A constant vector maps to
/// all zeros (the paper's towers always carry some traffic, but synthetic
/// edge cases must not divide by zero).
std::vector<double> zscore(std::span<const double> v);

/// Normalization by the maximum (used by the paper's Fig. 3/4/5 plots).
/// A non-positive maximum maps to all zeros.
std::vector<double> max_normalize(std::span<const double> v);

/// Empirical CDF evaluated at n_points evenly spaced between min and max.
/// Returns (x, F(x)) pairs. Requires non-empty input and n_points >= 2.
std::vector<std::pair<double, double>> empirical_cdf(std::span<const double> v,
                                                     std::size_t n_points);

/// Centered moving average with the given half-window, treating the series
/// as circular (appropriate for periodic daily profiles).
std::vector<double> circular_moving_average(std::span<const double> v,
                                            std::size_t half_window);

/// Euclidean distance between equal-length vectors.
double euclidean_distance(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean distance between equal-length vectors.
double squared_distance(std::span<const double> a, std::span<const double> b);

}  // namespace cellscope
