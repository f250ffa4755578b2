#include "analysis/component_analysis.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "obs/quality.h"

namespace cellscope {

namespace {

double feature_distance(const std::array<double, 3>& a,
                        const std::array<double, 3>& b) {
  double s = 0.0;
  for (int i = 0; i < 3; ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(s);
}

}  // namespace

std::size_t find_representative(
    const std::vector<std::array<double, 3>>& features,
    const std::vector<int>& labels, int cluster, ThreadPool* pool) {
  CS_CHECK_MSG(features.size() == labels.size() && !features.empty(),
               "features and labels must match");

  std::vector<std::size_t> members;
  std::vector<std::size_t> others;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == cluster) members.push_back(i);
    else others.push_back(i);
  }
  CS_CHECK_MSG(!members.empty(), "cluster has no members");
  CS_CHECK_MSG(!others.empty(), "no other clusters to separate from");

  // Per member (each written by exactly one task): its density-neighbor
  // count and its minimum distance to the other clusters.
  std::vector<std::size_t> neighbors(members.size(), 0);
  std::vector<double> separation(members.size());
  const auto measure = [&](std::size_t m) {
    const std::size_t i = members[m];
    for (std::size_t j = 0; j < features.size(); ++j) {
      if (j != i &&
          feature_distance(features[i], features[j]) <= kDensityRadius)
        ++neighbors[m];
    }
    double min_d = std::numeric_limits<double>::infinity();
    for (const std::size_t j : others)
      min_d = std::min(min_d, feature_distance(features[i], features[j]));
    separation[m] = min_d;
  };
  for_each_index(pool, members.size(), measure);

  // The argmax runs serially in ascending member order with a strict >,
  // so ties go to the lowest index whatever the worker count.
  const auto best_member = [&](bool enforce_density) {
    double best_score = -1.0;
    std::size_t best = features.size();  // sentinel
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (enforce_density && neighbors[m] < kMinNeighbors)
        continue;  // noise point
      if (separation[m] > best_score) {
        best_score = separation[m];
        best = members[m];
      }
    }
    return best;
  };
  std::size_t chosen = best_member(true);
  if (chosen == features.size()) chosen = best_member(false);  // all "noise"
  CS_CHECK_MSG(chosen < features.size(), "no representative found");
  return chosen;
}

Decomposition decompose_feature(
    const std::array<double, 3>& feature,
    const std::array<std::array<double, 3>, 4>& primary_features) {
  std::vector<std::vector<double>> components;
  components.reserve(4);
  for (const auto& p : primary_features)
    components.emplace_back(p.begin(), p.end());
  const std::vector<double> target(feature.begin(), feature.end());

  const auto solution = solve_simplex_ls(components, target);
  Decomposition d;
  for (int i = 0; i < 4; ++i) d.coefficients[i] = solution.coefficients[i];
  d.residual = std::sqrt(solution.objective);

  // Sentinel: the weights must lie on the probability simplex — the §5.3
  // convex-combination invariant. Feasible solves only bump a counter;
  // an infeasible one (solver bug or poisoned features) records a fail
  // verdict so run reports surface it.
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("cellscope.analysis.decompositions").add(1);
  auto feasible = obs::check_simplex_weights(solution.coefficients);
  if (!feasible.passed) {
    registry.counter("cellscope.analysis.simplex_violations").add(1);
    obs::QualityBoard::instance().record("analysis.decompose",
                                         "simplex_feasible",
                                         obs::Severity::kFail,
                                         std::move(feasible));
  }
  return d;
}

std::vector<double> combine_series(
    const std::array<double, 4>& coefficients,
    const std::array<std::vector<double>, 4>& primary_series) {
  const std::size_t n = primary_series[0].size();
  for (const auto& s : primary_series)
    CS_CHECK_MSG(s.size() == n, "primary series must have equal length");
  std::vector<double> out(n, 0.0);
  for (int i = 0; i < 4; ++i) {
    if (coefficients[i] == 0.0) continue;
    for (std::size_t t = 0; t < n; ++t)
      out[t] += coefficients[i] * primary_series[i][t];
  }
  return out;
}

}  // namespace cellscope
