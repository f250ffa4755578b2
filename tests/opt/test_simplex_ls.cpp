#include "opt/simplex_ls.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "support/oracles.h"

namespace cellscope {
namespace {

std::vector<std::vector<double>> random_components(std::size_t m,
                                                   std::size_t dim,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> components(m, std::vector<double>(dim));
  for (auto& c : components)
    for (auto& v : c) v = rng.normal();
  return components;
}

void expect_on_simplex(const std::vector<double>& x) {
  double total = 0.0;
  for (const double v : x) {
    EXPECT_GE(v, -1e-12);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ProjectToSimplex, AlreadyOnSimplexIsUnchanged) {
  const auto p = project_to_simplex({0.2, 0.3, 0.5});
  EXPECT_NEAR(p[0], 0.2, 1e-12);
  EXPECT_NEAR(p[1], 0.3, 1e-12);
  EXPECT_NEAR(p[2], 0.5, 1e-12);
}

TEST(ProjectToSimplex, ResultIsOnSimplex) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> v(4);
    for (auto& x : v) x = rng.normal(0.0, 3.0);
    expect_on_simplex(project_to_simplex(v));
  }
}

TEST(ProjectToSimplex, IsTheNearestSimplexPoint) {
  // Verify optimality against dense sampling of the 2-simplex.
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> v = {rng.normal(0.0, 2.0), rng.normal(0.0, 2.0),
                             rng.normal(0.0, 2.0)};
    const auto p = project_to_simplex(v);
    double p_dist = 0.0;
    for (int i = 0; i < 3; ++i) p_dist += (p[i] - v[i]) * (p[i] - v[i]);
    for (double a = 0.0; a <= 1.0; a += 0.05) {
      for (double b = 0.0; a + b <= 1.0; b += 0.05) {
        const double c = 1.0 - a - b;
        const double d = (a - v[0]) * (a - v[0]) + (b - v[1]) * (b - v[1]) +
                         (c - v[2]) * (c - v[2]);
        EXPECT_GE(d, p_dist - 1e-9);
      }
    }
  }
}

TEST(ProjectToSimplex, SingleElementIsOne) {
  const auto p = project_to_simplex({-5.0});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NEAR(p[0], 1.0, 1e-12);
}

TEST(SimplexLs, RecoversExactConvexCombination) {
  // Target constructed as a known combination of affinely independent
  // components: the solver must recover the weights exactly.
  const std::vector<std::vector<double>> components = {
      {1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {1.0, 1.0, 1.0}};
  const std::vector<double> weights = {0.1, 0.2, 0.3, 0.4};
  std::vector<double> target(3, 0.0);
  for (std::size_t i = 0; i < 4; ++i)
    for (int d = 0; d < 3; ++d) target[d] += weights[i] * components[i][d];

  const auto result = solve_simplex_ls(components, target);
  expect_on_simplex(result.coefficients);
  EXPECT_NEAR(result.objective, 0.0, 1e-12);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(result.coefficients[i], weights[i], 1e-6);
}

TEST(SimplexLs, VertexTargetsPickTheVertex) {
  const auto components = random_components(4, 3, 3);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto result = solve_simplex_ls(components, components[i]);
    EXPECT_NEAR(result.coefficients[i], 1.0, 1e-6);
    EXPECT_NEAR(result.objective, 0.0, 1e-9);
  }
}

TEST(SimplexLs, OutsideTargetSatisfiesKkt) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    const auto components = random_components(4, 3, 100 + trial);
    std::vector<double> target(3);
    for (auto& v : target) v = rng.normal(0.0, 3.0);
    const auto result = solve_simplex_ls(components, target);
    expect_on_simplex(result.coefficients);
    EXPECT_TRUE(check_simplex_kkt(components, target, result.coefficients,
                                  1e-5))
        << "trial " << trial;
  }
}

TEST(SimplexLs, AgreesWithProjectedGradient) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto components = random_components(4, 3, 200 + trial);
    std::vector<double> target(3);
    for (auto& v : target) v = rng.normal(0.0, 2.0);
    const auto exact = solve_simplex_ls(components, target);
    const auto pg =
        solve_simplex_ls_pg(components, target, 200000, 1e-13);
    EXPECT_NEAR(exact.objective, pg.objective,
                1e-5 * (1.0 + exact.objective))
        << "trial " << trial;
  }
}

TEST(SimplexLs, FittedEqualsCombination) {
  const auto components = random_components(3, 4, 6);
  const std::vector<double> target = {1.0, -1.0, 0.5, 0.0};
  const auto result = solve_simplex_ls(components, target);
  for (std::size_t d = 0; d < 4; ++d) {
    double expect = 0.0;
    for (std::size_t i = 0; i < 3; ++i)
      expect += result.coefficients[i] * components[i][d];
    EXPECT_NEAR(result.fitted[d], expect, 1e-9);
  }
}

TEST(SimplexLs, SingleComponentAlwaysGetsWeightOne) {
  const std::vector<std::vector<double>> components = {{2.0, 3.0}};
  const auto result = solve_simplex_ls(components, {0.0, 0.0});
  EXPECT_NEAR(result.coefficients[0], 1.0, 1e-12);
  EXPECT_NEAR(result.objective, 13.0, 1e-9);
}

TEST(SimplexLs, DuplicateComponentsAreHandled) {
  // Degenerate KKT systems from identical columns must not break the
  // solver; any split between duplicates is optimal.
  const std::vector<std::vector<double>> components = {
      {1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}};
  const auto result = solve_simplex_ls(components, {0.5, 0.5});
  expect_on_simplex(result.coefficients);
  EXPECT_NEAR(result.coefficients[0] + result.coefficients[1], 0.5, 1e-6);
  EXPECT_NEAR(result.coefficients[2], 0.5, 1e-6);
}

TEST(SimplexLs, ObjectiveIsNeverWorseThanAnyVertex) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto components = random_components(4, 3, 300 + trial);
    std::vector<double> target(3);
    for (auto& v : target) v = rng.normal();
    const auto result = solve_simplex_ls(components, target);
    for (const auto& c : components) {
      double vertex_obj = 0.0;
      for (std::size_t d = 0; d < 3; ++d)
        vertex_obj += (c[d] - target[d]) * (c[d] - target[d]);
      EXPECT_LE(result.objective, vertex_obj + 1e-9);
    }
  }
}

TEST(SimplexLs, TargetFarOutsideTheComponentsStillGetsAnAnswer) {
  // |Aᵀb| ≫ |G|: each vertex's KKT solve cancels x_i to 0, so unless the
  // vertices are taken as they are, no support is feasible and the solve
  // throws.
  const std::vector<std::vector<double>> components = {
      {1.2, 0.3, 0.8}, {0.9, -2.0, 0.4}, {1.1, 2.5, 0.2}, {0.7, 1.0, 0.9}};
  const std::vector<double> target = {1e18, 1e17, 1e16};
  const auto result = solve_simplex_ls(components, target);
  expect_on_simplex(result.coefficients);
  for (const auto& c : components) {
    double vertex_obj = 0.0;
    for (std::size_t d = 0; d < 3; ++d)
      vertex_obj += (c[d] - target[d]) * (c[d] - target[d]);
    EXPECT_LE(result.objective, vertex_obj * (1.0 + 1e-12));
  }
}

TEST(SimplexLs, ValidatesArguments) {
  EXPECT_THROW(solve_simplex_ls({}, {1.0}), Error);
  EXPECT_THROW(solve_simplex_ls({{1.0, 2.0}}, {}), Error);
  EXPECT_THROW(solve_simplex_ls({{1.0, 2.0}, {1.0}}, {0.0, 0.0}), Error);
  EXPECT_THROW(project_to_simplex({}), Error);
}

TEST(CheckKkt, RejectsInfeasibleAndSuboptimalPoints) {
  const auto components = random_components(3, 2, 8);
  const std::vector<double> target = {10.0, 10.0};
  // Not on the simplex.
  EXPECT_FALSE(
      check_simplex_kkt(components, target, {0.5, 0.2, 0.2}, 1e-6));
  EXPECT_FALSE(
      check_simplex_kkt(components, target, {1.5, -0.5, 0.0}, 1e-6));
  // Feasible but (almost surely) not optimal: uniform weights.
  const auto optimal = solve_simplex_ls(components, target);
  if ((std::fabs(optimal.coefficients[0] - 1.0 / 3.0) > 0.05)) {
    EXPECT_FALSE(check_simplex_kkt(components, target,
                                   {1.0 / 3, 1.0 / 3, 1.0 / 3}, 1e-6));
  }
}

// Parameterized sweep: exact recovery across dimensions and sizes.
class SimplexLsRecovery
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SimplexLsRecovery, InteriorTargetsAreRecovered) {
  const auto [m, dim] = GetParam();
  if (m > dim + 1) GTEST_SKIP() << "weights not identifiable";
  Rng rng(static_cast<std::uint64_t>(m * 100 + dim));
  const auto components =
      random_components(static_cast<std::size_t>(m),
                        static_cast<std::size_t>(dim),
                        static_cast<std::uint64_t>(m * 7 + dim));
  const auto weights =
      rng.dirichlet(std::vector<double>(static_cast<std::size_t>(m), 2.0));
  std::vector<double> target(static_cast<std::size_t>(dim), 0.0);
  for (int i = 0; i < m; ++i)
    for (int d = 0; d < dim; ++d)
      target[static_cast<std::size_t>(d)] +=
          weights[static_cast<std::size_t>(i)]
          * components[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)];
  const auto result = solve_simplex_ls(components, target);
  EXPECT_NEAR(result.objective, 0.0, 1e-9);
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(result.coefficients[static_cast<std::size_t>(i)],
                weights[static_cast<std::size_t>(i)], 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SimplexLsRecovery,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(3, 5, 8)));

}  // namespace
}  // namespace cellscope
