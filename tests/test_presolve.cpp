// Tests for the bound-propagation presolve — the component that makes the
// big-M indicator MILPs (every MetaOpt-style encoding) tractable for the
// branch-and-bound solver.
#include <gtest/gtest.h>

#include "solver/milp.h"
#include "solver/presolve.h"
#include "util/random.h"

namespace xs = xplain::solver;
using xs::kInf;
using xs::LpProblem;
using xs::RowSense;

TEST(Presolve, TightensSimpleChain) {
  // x = 3 (fixed), x + y <= 5  =>  y <= 2.
  LpProblem p;
  int x = p.add_col(3, 3, 0, false, "x");
  int y = p.add_col(0, 100, 0, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kLe, 5);
  auto r = xs::propagate_bounds(p);
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(r.tightened, 1);
  EXPECT_LE(p.hi(y), 2.0 + 1e-6);
}

TEST(Presolve, CascadesThroughBigMIndicators) {
  // The pattern every helper emits: x fixed at 7; indicator z with
  // x <= 5 + M(1-z) forces z = 0; then w <= M*z forces w = 0.
  const double M = 1000;
  LpProblem p;
  int x = p.add_col(7, 7, 0, false, "x");
  int z = p.add_col(0, 1, 0, true, "z");
  int w = p.add_col(0, 50, 0, false, "w");
  p.add_row({{x, 1}, {z, M}}, RowSense::kLe, 5 + M);
  p.add_row({{w, 1}, {z, -M}}, RowSense::kLe, 0);
  auto r = xs::propagate_bounds(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(p.hi(z), 0.0, 1e-9);  // z fixed to 0
  EXPECT_NEAR(p.hi(w), 0.0, 1e-6);  // and w collapses with it
}

TEST(Presolve, DetectsRowInfeasibility) {
  LpProblem p;
  int x = p.add_col(0, 1, 0, false, "x");
  int y = p.add_col(0, 1, 0, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kGe, 3);  // max activity 2 < 3
  EXPECT_FALSE(xs::propagate_bounds(p).feasible);
}

TEST(Presolve, DetectsEmptyIntegerDomain) {
  LpProblem p;
  int z = p.add_col(0, 1, 0, true, "z");
  p.add_row({{z, 1}}, RowSense::kGe, 0.4);
  p.add_row({{z, 1}}, RowSense::kLe, 0.6);
  // z must be in [0.4, 0.6], integral: empty after rounding.
  EXPECT_FALSE(xs::propagate_bounds(p).feasible);
}

TEST(Presolve, RoundsIntegerBounds) {
  LpProblem p;
  int z = p.add_col(0, 10, 0, true, "z");
  p.add_row({{z, 2}}, RowSense::kLe, 7);   // z <= 3.5 -> 3
  p.add_row({{z, 3}}, RowSense::kGe, 4);   // z >= 1.33 -> 2
  auto r = xs::propagate_bounds(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(p.hi(z), 3.0);
  EXPECT_DOUBLE_EQ(p.lo(z), 2.0);
}

TEST(Presolve, HandlesInfiniteBoundsSafely) {
  LpProblem p;
  int x = p.add_col(0, kInf, 0, false, "x");
  int y = p.add_col(0, kInf, 0, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kLe, 10);
  auto r = xs::propagate_bounds(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(p.hi(x), 10.0 + 1e-6);
  EXPECT_LE(p.hi(y), 10.0 + 1e-6);
}

TEST(Presolve, EqualityPropagatesBothWays) {
  LpProblem p;
  int x = p.add_col(0, 10, 0, false, "x");
  int y = p.add_col(4, 4, 0, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kEq, 9);
  auto r = xs::propagate_bounds(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(p.lo(x), 5.0, 1e-6);
  EXPECT_NEAR(p.hi(x), 5.0, 1e-6);
}

// Property: propagation never changes the MILP optimum (it only adds
// implied bounds).
class PresolvePreservesOptimum : public ::testing::TestWithParam<int> {};

TEST_P(PresolvePreservesOptimum, OnRandomMilps) {
  xplain::util::Rng rng(5150 + GetParam());
  LpProblem p;
  p.sense = xs::Sense::kMaximize;
  const int nb = rng.uniform_int(2, 5), nc = rng.uniform_int(0, 3);
  for (int j = 0; j < nb; ++j) p.add_col(0, 1, rng.uniform(-3, 6), true);
  for (int j = 0; j < nc; ++j) p.add_col(0, 5, rng.uniform(-1, 3), false);
  for (int i = 0, m = rng.uniform_int(1, 4); i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < nb + nc; ++j)
      coef.emplace_back(j, rng.uniform(0.0, 2.0));
    p.add_row(std::move(coef), RowSense::kLe, rng.uniform(1.0, 6.0));
  }
  auto before = xs::solve_milp(p);
  LpProblem q = p;
  auto prop = xs::propagate_bounds(q);
  ASSERT_TRUE(prop.feasible);
  auto after = xs::solve_milp(q);
  ASSERT_EQ(before.status, after.status);
  if (before.status == xs::Status::kOptimal) {
    EXPECT_NEAR(before.obj, after.obj, 1e-6 * (1 + std::abs(before.obj)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PresolvePreservesOptimum,
                         ::testing::Range(0, 25));

TEST(Presolve, MakesFixedInputIndicatorChainsTrivial) {
  // The production scenario: a chain of K dependent indicators over a fixed
  // input.  Propagation must fix every binary so branch-and-bound needs
  // only the root node.
  const double M = 100;
  LpProblem p;
  const int K = 12;
  int prev = p.add_col(1, 1, 0, false, "x0");
  for (int k = 0; k < K; ++k) {
    int z = p.add_col(0, 1, 0, true);
    // z = 1 <=> prev >= 0.5  (prev alternates 1, 0, 1, ...)
    p.add_row({{prev, -1}, {z, M}}, RowSense::kLe, M - 0.5);
    p.add_row({{prev, -1}, {z, M}}, RowSense::kGe, -0.5 + 0.01);
    // next = 1 - z
    int next = p.add_col(0, 1, 0, false);
    p.add_row({{next, 1}, {z, 1}}, RowSense::kEq, 1);
    prev = next;
  }
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, xs::Status::kOptimal);
  EXPECT_LE(r.nodes, 2) << "propagation should solve this at the root";
}
