#include "opt/simplex_ls.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace cellscope {

namespace {

/// Builds the d×m matrix whose columns are the components.
Matrix component_matrix(const std::vector<std::vector<double>>& components,
                        std::size_t dim) {
  Matrix a(dim, components.size());
  for (std::size_t c = 0; c < components.size(); ++c) {
    CS_CHECK_MSG(components[c].size() == dim,
                 "component dimension mismatch");
    for (std::size_t r = 0; r < dim; ++r) a.at(r, c) = components[c][r];
  }
  return a;
}

double objective_value(const Matrix& a, const std::vector<double>& target,
                       const std::vector<double>& x) {
  const auto fitted = a.multiply(x);
  return squared_distance(fitted, target);
}

}  // namespace

SimplexLsResult solve_simplex_ls(
    const std::vector<std::vector<double>>& components,
    const std::vector<double>& target) {
  const std::size_t m = components.size();
  CS_CHECK_MSG(m >= 1, "need at least one component");
  CS_CHECK_MSG(m <= 16, "active-set enumeration supports at most 16 components");
  const std::size_t dim = target.size();
  CS_CHECK_MSG(dim >= 1, "empty target");
  const Matrix a = component_matrix(components, dim);
  const Matrix gram = a.gram();
  const auto atb = a.multiply_transposed(target);

  SimplexLsResult best;
  best.objective = std::numeric_limits<double>::infinity();

  // Enumerate non-empty supports S; solve the equality-constrained LS
  //   [ G_S  1 ] [x_S]   [Aᵀb_S]
  //   [ 1ᵀ   0 ] [ λ ] = [  1  ]
  // and keep the best candidate with x_S ≥ 0.
  for (std::size_t mask = 1; mask < (1u << m); ++mask) {
    std::vector<std::size_t> support;
    for (std::size_t i = 0; i < m; ++i)
      if (mask & (1u << i)) support.push_back(i);
    const std::size_t s = support.size();

    std::vector<double> x(m, 0.0);
    if (s == 1) {
      // A vertex of the simplex is x = e_i exactly. Its 2×2 KKT solve
      // loses x_i to cancellation when |Aᵀb| ≫ |G| (a target far outside
      // the components' scale), which could leave no support feasible.
      x[support[0]] = 1.0;
      const double obj = objective_value(a, target, x);
      if (obj < best.objective) {
        best.objective = obj;
        best.coefficients = std::move(x);
      }
      continue;
    }

    Matrix kkt(s + 1, s + 1);
    std::vector<double> rhs(s + 1, 0.0);
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = 0; j < s; ++j)
        kkt.at(i, j) = gram.at(support[i], support[j]);
      kkt.at(i, s) = 1.0;
      kkt.at(s, i) = 1.0;
      rhs[i] = atb[support[i]];
    }
    rhs[s] = 1.0;

    std::vector<double> solution;
    try {
      solution = solve_linear(kkt, rhs);
    } catch (const Error&) {
      continue;  // degenerate support (e.g. duplicated components)
    }

    bool feasible = true;
    for (std::size_t i = 0; i < s; ++i) {
      if (solution[i] < -1e-9) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;

    for (std::size_t i = 0; i < s; ++i)
      x[support[i]] = std::max(0.0, solution[i]);
    // Renormalize away the clamp's epsilon drift.
    double total = 0.0;
    for (const double v : x) total += v;
    if (total <= 0.0) continue;
    for (auto& v : x) v /= total;

    const double obj = objective_value(a, target, x);
    if (obj < best.objective) {
      best.objective = obj;
      best.coefficients = std::move(x);
    }
  }

  CS_CHECK_MSG(!best.coefficients.empty(),
               "no feasible support found (should be impossible)");
  best.fitted = a.multiply(best.coefficients);
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("cellscope.opt.qp_solves").add(1);
  registry.counter("cellscope.opt.qp_supports_evaluated")
      .add((1u << m) - 1);
  return best;
}

std::vector<double> project_to_simplex(std::vector<double> v) {
  CS_CHECK_MSG(!v.empty(), "projection of empty vector");
  // Held-Wolfe-Crowder / Duchi et al.: sort, find the threshold rho.
  std::vector<double> u = v;
  std::sort(u.rbegin(), u.rend());
  double cumulative = 0.0;
  double theta = 0.0;
  std::size_t rho = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    cumulative += u[i];
    const double candidate =
        (cumulative - 1.0) / static_cast<double>(i + 1);
    if (u[i] - candidate > 0.0) {
      rho = i + 1;
      theta = candidate;
    }
  }
  CS_CHECK_MSG(rho > 0, "projection failed");
  for (auto& x : v) x = std::max(0.0, x - theta);
  return v;
}

SimplexLsResult solve_simplex_ls_pg(
    const std::vector<std::vector<double>>& components,
    const std::vector<double>& target, std::size_t max_iterations,
    double tolerance) {
  const std::size_t m = components.size();
  CS_CHECK_MSG(m >= 1, "need at least one component");
  const std::size_t dim = target.size();
  const Matrix a = component_matrix(components, dim);
  const Matrix gram = a.gram();
  const auto atb = a.multiply_transposed(target);

  // Step size 1/L with L = trace(G) (an upper bound on the largest
  // eigenvalue of the Hessian 2G up to the factor handled below).
  double trace = 0.0;
  for (std::size_t i = 0; i < m; ++i) trace += gram.at(i, i);
  const double step = trace > 0.0 ? 1.0 / (2.0 * trace) : 1.0;

  std::vector<double> x(m, 1.0 / static_cast<double>(m));
  std::size_t iterations_used = 0;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    ++iterations_used;
    // grad = 2 (G x - Aᵀb)
    std::vector<double> grad(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      double gx = 0.0;
      for (std::size_t j = 0; j < m; ++j) gx += gram.at(i, j) * x[j];
      grad[i] = 2.0 * (gx - atb[i]);
    }
    std::vector<double> next(m);
    for (std::size_t i = 0; i < m; ++i) next[i] = x[i] - step * grad[i];
    next = project_to_simplex(std::move(next));

    double delta = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      delta += (next[i] - x[i]) * (next[i] - x[i]);
    x = std::move(next);
    if (delta < tolerance * tolerance) break;
  }

  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("cellscope.opt.qp_solves").add(1);
  registry.counter("cellscope.opt.qp_iterations").add(iterations_used);

  SimplexLsResult result;
  result.coefficients = x;
  result.fitted = a.multiply(x);
  result.objective = squared_distance(result.fitted, target);
  return result;
}

}  // namespace cellscope
