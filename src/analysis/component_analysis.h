// Primary components and convex decomposition — §5.2/§5.3 of the paper.
//
// The paper's two statements: (1) the most representative tower of a
// cluster is not its centroid but the farthest non-noise point from the
// separating hyperplanes — operationalized as the tower maximizing the
// minimum feature-space distance to towers of other clusters, subject to a
// local-density floor that rejects noise points; (2) every tower's
// frequency features lie (approximately) inside the polygon spanned by the
// four primary components, so each tower decomposes as a convex
// combination of them, solved as a simplex-constrained least squares.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "analysis/freq_features.h"
#include "opt/simplex_ls.h"

namespace cellscope {

class ThreadPool;

/// Feature-space radius of the density (noise) test.
inline constexpr double kDensityRadius = 0.15;
/// Minimum neighbors within kDensityRadius for a tower to count as
/// non-noise.
inline constexpr std::size_t kMinNeighbors = 3;

/// Index of the most representative tower of one cluster: the non-noise
/// member farthest (in min-distance terms) from all towers of other
/// clusters, in the (A28, P28, A56) feature space. Falls back to ignoring
/// the density test when no member passes it. With a pool, the members'
/// density and separation are measured in parallel; the choice is
/// identical to the serial (nullptr) path.
std::size_t find_representative(
    const std::vector<std::array<double, 3>>& features,
    const std::vector<int>& labels, int cluster, ThreadPool* pool = nullptr);

/// One tower's convex decomposition over the four primary components.
struct Decomposition {
  std::array<double, 4> coefficients{};  ///< convex weights
  double residual = 0.0;                 ///< || F - F^r ||
};

/// Decomposes a tower's feature against the four primary components'
/// features (in pure-region order: resident, transport, office,
/// entertainment).
Decomposition decompose_feature(
    const std::array<double, 3>& feature,
    const std::array<std::array<double, 3>, 4>& primary_features);

/// Reconstructs a time-domain series from a decomposition: the convex
/// combination of the four primary towers' z-scored series — the Fig. 19
/// view.
std::vector<double> combine_series(
    const std::array<double, 4>& coefficients,
    const std::array<std::vector<double>, 4>& primary_series);

}  // namespace cellscope
