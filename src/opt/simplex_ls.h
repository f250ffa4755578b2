// Simplex-constrained least squares — the paper's §5.3 quadratic program.
//
//   minimize   || F − Σᵢ F⁰ᵢ xᵢ ||²
//   subject to Σᵢ xᵢ = 1,  xᵢ ≥ 0
//
// where the F⁰ᵢ are the four primary components' feature vectors and F the
// target tower's features. The number of components is tiny, so the exact
// solver enumerates active sets: for each non-empty support it solves the
// equality-constrained KKT system and keeps the best feasible candidate —
// exact, robust, and easily verified against the KKT conditions. A
// projected-gradient solver is included as a cross-check and as the perf
// bench baseline.
#pragma once

#include <cstddef>
#include <vector>

#include "opt/linalg.h"

namespace cellscope {

/// Result of a simplex-constrained least-squares solve.
struct SimplexLsResult {
  std::vector<double> coefficients;  ///< on the simplex
  double objective = 0.0;            ///< ||F - A x||²
  std::vector<double> fitted;        ///< A x
};

/// Exact active-set solver. `components` are the columns F⁰ᵢ (each of the
/// target's dimension); at most ~16 components (2^m enumeration).
SimplexLsResult solve_simplex_ls(
    const std::vector<std::vector<double>>& components,
    const std::vector<double>& target);

/// Projected-gradient solver (baseline / cross-check); converges to the
/// same optimum on this convex problem.
SimplexLsResult solve_simplex_ls_pg(
    const std::vector<std::vector<double>>& components,
    const std::vector<double>& target, std::size_t max_iterations = 5000,
    double tolerance = 1e-12);

/// Euclidean projection onto the probability simplex
/// {x : Σx = 1, x ≥ 0} (sort-based algorithm).
std::vector<double> project_to_simplex(std::vector<double> v);

}  // namespace cellscope
