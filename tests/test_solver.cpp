// Unit and property tests for the LP (two-phase simplex) and MILP
// (branch-and-bound) solvers in src/solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "solver/lu.h"
#include "solver/milp.h"
#include "solver/simplex.h"
#include "util/random.h"

namespace xs = xplain::solver;
using xs::kInf;
using xs::LpProblem;
using xs::RowSense;
using xs::Sense;
using xs::Status;

namespace {

LpProblem textbook_max() {
  // max 3x + 5y  s.t.  x <= 4;  2y <= 12;  3x + 2y <= 18;  x,y >= 0.
  // Optimum (2, 6) with objective 36 (Dantzig's classic).
  LpProblem p;
  p.sense = Sense::kMaximize;
  int x = p.add_col(0, kInf, 3, false, "x");
  int y = p.add_col(0, kInf, 5, false, "y");
  p.add_row({{x, 1}}, RowSense::kLe, 4);
  p.add_row({{y, 2}}, RowSense::kLe, 12);
  p.add_row({{x, 3}, {y, 2}}, RowSense::kLe, 18);
  return p;
}

}  // namespace

TEST(Simplex, TextbookMaximization) {
  auto p = textbook_max();
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 36.0, 1e-8);
  EXPECT_NEAR(s.x[0], 2.0, 1e-8);
  EXPECT_NEAR(s.x[1], 6.0, 1e-8);
}

TEST(Simplex, TextbookDuals) {
  auto p = textbook_max();
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  // Known duals: y = (0, 3/2, 1); strong duality: y'b = 36.
  EXPECT_NEAR(s.y[0], 0.0, 1e-8);
  EXPECT_NEAR(s.y[1], 1.5, 1e-8);
  EXPECT_NEAR(s.y[2], 1.0, 1e-8);
  EXPECT_NEAR(s.y[0] * 4 + s.y[1] * 12 + s.y[2] * 18, 36.0, 1e-8);
}

TEST(Simplex, Minimization) {
  // min 2x + 3y s.t. x + y >= 10, x - y <= 4, x,y >= 0. Optimum x=7,y=3? No:
  // cost pushes y down, x up: try x=10,y=0 violates x-y<=4; x=7,y=3 -> 23.
  LpProblem p;
  int x = p.add_col(0, kInf, 2, false, "x");
  int y = p.add_col(0, kInf, 3, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kGe, 10);
  p.add_row({{x, 1}, {y, -1}}, RowSense::kLe, 4);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 23.0, 1e-8);
  EXPECT_NEAR(s.x[0], 7.0, 1e-8);
  EXPECT_NEAR(s.x[1], 3.0, 1e-8);
}

TEST(Simplex, EqualityRows) {
  // min x + 2y + 3z  s.t. x + y + z = 6, y + z = 4. Optimum x=2,y=4,z=0 -> 10.
  LpProblem p;
  int x = p.add_col(0, kInf, 1, false, "x");
  int y = p.add_col(0, kInf, 2, false, "y");
  int z = p.add_col(0, kInf, 3, false, "z");
  p.add_row({{x, 1}, {y, 1}, {z, 1}}, RowSense::kEq, 6);
  p.add_row({{y, 1}, {z, 1}}, RowSense::kEq, 4);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 10.0, 1e-8);
}

TEST(Simplex, UpperBounds) {
  // max x + y with x <= 2.5, y <= 1.5 via column bounds.
  LpProblem p;
  p.sense = Sense::kMaximize;
  p.add_col(0, 2.5, 1, false, "x");
  p.add_col(0, 1.5, 1, false, "y");
  p.add_row({{0, 1}, {1, 1}}, RowSense::kLe, 100);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 4.0, 1e-8);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x subject to x >= -5 (bound) and x + y = 0, y <= 3.
  LpProblem p;
  int x = p.add_col(-5, kInf, 1, false, "x");
  int y = p.add_col(-kInf, 3, 0, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kEq, 0);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[0], -3.0, 1e-8);  // limited by y <= 3
  EXPECT_NEAR(s.obj, -3.0, 1e-8);
}

TEST(Simplex, FreeVariables) {
  // min |style| free var: min x + y, x free, y >= 0, x + y >= 2, x >= -7.
  LpProblem p;
  int x = p.add_col(-kInf, kInf, 1, false, "x");
  int y = p.add_col(0, kInf, 1, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kGe, 2);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 2.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p;
  int x = p.add_col(0, kInf, 1, false, "x");
  p.add_row({{x, 1}}, RowSense::kGe, 5);
  p.add_row({{x, 1}}, RowSense::kLe, 3);
  EXPECT_EQ(xs::solve_lp(p).status, Status::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleBounds) {
  LpProblem p;
  p.add_col(5, 3, 1, false, "x");  // empty box
  p.add_row({{0, 1}}, RowSense::kLe, 100);
  EXPECT_EQ(xs::solve_lp(p).status, Status::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem p;
  p.sense = Sense::kMaximize;
  int x = p.add_col(0, kInf, 1, false, "x");
  p.add_row({{x, -1}}, RowSense::kLe, 0);
  EXPECT_EQ(xs::solve_lp(p).status, Status::kUnbounded);
}

TEST(Simplex, DegenerateProblem) {
  // Classic degeneracy (Beale-like): must not cycle.
  LpProblem p;
  p.sense = Sense::kMinimize;
  int x1 = p.add_col(0, kInf, -0.75, false);
  int x2 = p.add_col(0, kInf, 150, false);
  int x3 = p.add_col(0, kInf, -0.02, false);
  int x4 = p.add_col(0, kInf, 6, false);
  p.add_row({{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, RowSense::kLe, 0);
  p.add_row({{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, RowSense::kLe, 0);
  p.add_row({{x3, 1}}, RowSense::kLe, 1);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, -0.05, 1e-8);
}

TEST(Simplex, ZeroRowsProblem) {
  LpProblem p;
  p.add_col(1.0, 4.0, 1.0, false, "x");
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, 1.0, 1e-9);
}

TEST(Simplex, FixedVariables) {
  LpProblem p;
  int x = p.add_col(2, 2, 1, false, "x");
  int y = p.add_col(0, kInf, 1, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kGe, 5);
  auto s = xs::solve_lp(p);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 3.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Property tests: random feasible LPs must satisfy weak/strong duality and
// the returned point must be primal feasible.
// ---------------------------------------------------------------------------

class RandomLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpProperty, StrongDualityAndFeasibility) {
  xplain::util::Rng rng(1234 + GetParam());
  const int n = rng.uniform_int(2, 8);
  const int m = rng.uniform_int(1, 6);
  LpProblem p;
  p.sense = Sense::kMaximize;
  for (int j = 0; j < n; ++j)
    p.add_col(0, kInf, rng.uniform(-2.0, 5.0), false);
  // Rows a'x <= b with a >= 0 and b > 0 keep the region nonempty (0 feasible)
  // and bounded in every improving direction with prob ~1 when some a_j > 0.
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j) coef.emplace_back(j, rng.uniform(0.1, 3.0));
    p.add_row(std::move(coef), RowSense::kLe, rng.uniform(1.0, 20.0));
  }
  auto s = xs::solve_lp(p);
  bool improving = false;
  for (int j = 0; j < n; ++j) improving |= p.obj(j) > 0;
  if (!improving) {
    ASSERT_EQ(s.status, Status::kOptimal);
    EXPECT_NEAR(s.obj, 0.0, 1e-7);
    return;
  }
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_TRUE(p.feasible(s.x, 1e-6)) << p.to_string();
  // Strong duality for max{c'x : Ax<=b, x>=0}: obj == y'b with y >= 0 and
  // A'y >= c.
  double yb = 0.0;
  for (int i = 0; i < m; ++i) {
    EXPECT_GE(s.y[i], -1e-7);
    yb += s.y[i] * p.row(i).rhs;
  }
  EXPECT_NEAR(yb, s.obj, 1e-6 * (1 + std::abs(s.obj)));
  for (int j = 0; j < n; ++j) {
    double aty = 0.0;
    for (int i = 0; i < m; ++i)
      for (const auto& [col, v] : p.row(i).coef)
        if (col == j) aty += v * s.y[i];
    EXPECT_GE(aty, p.obj(j) - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpProperty, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Revised simplex vs. the retained dense-tableau oracle, and warm-start
// equivalence: warm solves must agree with cold solves in status and
// optimum on LPs with tightened bounds (the branch-and-bound situation).
// ---------------------------------------------------------------------------

namespace {

// Random LP exercising every bound shape (finite/infinite/negative lowers,
// finite uppers, free and fixed columns) and every row sense.
LpProblem random_bounded_lp(xplain::util::Rng& rng) {
  LpProblem p;
  p.sense = rng.bernoulli(0.5) ? Sense::kMaximize : Sense::kMinimize;
  const int n = rng.uniform_int(2, 7);
  for (int j = 0; j < n; ++j) {
    const int shape = rng.uniform_int(0, 4);
    double lo = 0.0, hi = kInf;
    if (shape == 0) {            // [0, u]
      hi = rng.uniform(0.5, 8.0);
    } else if (shape == 1) {     // [-l, u]
      lo = -rng.uniform(0.5, 5.0);
      hi = rng.uniform(0.5, 8.0);
    } else if (shape == 2) {     // (-inf, u]
      lo = -kInf;
      hi = rng.uniform(0.0, 6.0);
    } else if (shape == 3) {     // fixed
      lo = hi = rng.uniform(-2.0, 2.0);
    }                            // else [0, inf)
    p.add_col(lo, hi, rng.uniform(-3.0, 3.0));
  }
  const int m = rng.uniform_int(1, 5);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.7)) coef.emplace_back(j, rng.uniform(-2.0, 3.0));
    if (coef.empty()) coef.emplace_back(rng.uniform_int(0, n - 1), 1.0);
    const int s = rng.uniform_int(0, 5);
    const RowSense sense = s <= 2   ? RowSense::kLe
                           : s <= 4 ? RowSense::kGe
                                    : RowSense::kEq;
    p.add_row(std::move(coef), sense, rng.uniform(-4.0, 12.0));
  }
  return p;
}

void expect_agreement(const LpProblem& p, const xs::LpSolution& a,
                      const xs::LpSolution& b, const char* what) {
  ASSERT_EQ(a.status, b.status) << what << "\n" << p.to_string();
  if (a.status != Status::kOptimal) return;
  EXPECT_NEAR(a.obj, b.obj, 1e-6 * (1.0 + std::abs(b.obj)))
      << what << "\n" << p.to_string();
  EXPECT_TRUE(p.feasible(a.x, 1e-6)) << what << "\n" << p.to_string();
}

}  // namespace

TEST(SimplexOracle, NamedCasesMatchTableau) {
  std::vector<LpProblem> cases;
  cases.push_back(textbook_max());
  {
    LpProblem p;
    int x = p.add_col(0, kInf, 2, false, "x");
    int y = p.add_col(0, kInf, 3, false, "y");
    p.add_row({{x, 1}, {y, 1}}, RowSense::kGe, 10);
    p.add_row({{x, 1}, {y, -1}}, RowSense::kLe, 4);
    cases.push_back(p);
  }
  {
    LpProblem p;
    p.sense = Sense::kMaximize;
    p.add_col(0, 2.5, 1, false, "x");
    p.add_col(0, 1.5, 1, false, "y");
    p.add_row({{0, 1}, {1, 1}}, RowSense::kLe, 100);
    cases.push_back(p);
  }
  {
    LpProblem p;
    int x = p.add_col(-5, kInf, 1, false, "x");
    int y = p.add_col(-kInf, 3, 0, false, "y");
    p.add_row({{x, 1}, {y, 1}}, RowSense::kEq, 0);
    cases.push_back(p);
  }
  for (const auto& p : cases)
    expect_agreement(p, xs::solve_lp(p), xs::solve_lp_tableau(p), "named");
}

class RandomLpOracle : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpOracle, MatchesTableau) {
  xplain::util::Rng rng(4242 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    LpProblem p = random_bounded_lp(rng);
    expect_agreement(p, xs::solve_lp(p), xs::solve_lp_tableau(p), "random");
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpOracle, ::testing::Range(0, 25));

TEST(SimplexWarmStart, WarmEqualsColdUnderBoundTightenings) {
  xplain::util::Rng rng(20240715);
  int solved = 0;
  for (int trial = 0; trial < 1200 && solved < 250; ++trial) {
    LpProblem p = random_bounded_lp(rng);
    auto cold = xs::solve_lp(p);
    if (cold.status != Status::kOptimal) continue;
    // Tighten 1-3 random column boxes the way branch-and-bound would:
    // around (or away from) the optimal point.
    LpProblem q = p;
    const int cuts = rng.uniform_int(1, 3);
    for (int c = 0; c < cuts; ++c) {
      const int j = rng.uniform_int(0, p.num_cols() - 1);
      const double x = cold.x[j];
      if (rng.bernoulli(0.5)) {
        q.set_bounds(j, q.lo(j), std::min(q.hi(j), x - rng.uniform(0.0, 1.5)));
      } else {
        q.set_bounds(j, std::max(q.lo(j), x + rng.uniform(0.0, 1.5)), q.hi(j));
      }
    }
    auto warm = xs::solve_lp(q, {}, &cold.basis);
    auto fresh = xs::solve_lp(q);
    ASSERT_EQ(warm.status, fresh.status)
        << p.to_string() << "--- tightened ---\n" << q.to_string();
    if (warm.status == Status::kOptimal) {
      EXPECT_NEAR(warm.obj, fresh.obj, 1e-6 * (1.0 + std::abs(fresh.obj)))
          << q.to_string();
      EXPECT_TRUE(q.feasible(warm.x, 1e-6)) << q.to_string();
    }
    ++solved;
  }
  // The generator must actually exercise the warm path.
  EXPECT_GE(solved, 200);
}

// ---------------------------------------------------------------------------
// Refactorization triggers: besides the blind pivot-count trigger
// (refactor_every), the eta-file nonzero bound and the fill-ratio bound
// must both fire and be exposed with sane defaults.
// ---------------------------------------------------------------------------

TEST(SimplexRefactor, KnobDefaultsAreSane) {
  const xs::SimplexOptions opts;
  EXPECT_GT(opts.refactor_every, 0);
  EXPECT_GT(opts.refactor_eta_nnz, 0);
  EXPECT_GT(opts.refactor_fill_ratio, 0.0);
  EXPECT_EQ(opts.fail_refactor_at, 0);  // failure injection off by default
  // The performance posture: the dense fallback covers tiny bases, and the
  // size gate keeps tiny LPs on the plain Dantzig scan (partial pricing
  // above it).
  EXPECT_GT(opts.dense_basis_dim, 0);
  EXPECT_GT(opts.partial_pricing_min_cols, 0);
}

namespace {

// Enough pivots (and eta fill) that the tight triggers below actually fire.
LpProblem refactor_mill() {
  xplain::util::Rng rng(99);
  LpProblem p;
  p.sense = Sense::kMaximize;
  const int n = 10;
  for (int j = 0; j < n; ++j) p.add_col(0, 3.0, rng.uniform(0.5, 2.0));
  for (int i = 0; i < 6; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.6)) coef.emplace_back(j, rng.uniform(0.2, 1.5));
    if (coef.empty()) coef.emplace_back(0, 1.0);
    p.add_row(std::move(coef), RowSense::kLe, rng.uniform(2.0, 6.0));
  }
  return p;
}

}  // namespace

TEST(SimplexRefactor, EtaNnzBoundTriggersEarlyRefactorization) {
  const LpProblem p = refactor_mill();
  const auto lazy = xs::solve_lp(p);  // defaults: pivot trigger only
  ASSERT_EQ(lazy.status, Status::kOptimal);
  ASSERT_GE(lazy.iterations, 3);

  xs::SimplexOptions eager;
  eager.refactor_eta_nnz = 1;  // any eta fill at all forces a refactor
  const auto tight = xs::solve_lp(p, eager);
  ASSERT_EQ(tight.status, Status::kOptimal);
  EXPECT_NEAR(tight.obj, lazy.obj, 1e-8 * (1.0 + std::abs(lazy.obj)));
  EXPECT_GT(tight.refactorizations, lazy.refactorizations);
}

TEST(SimplexRefactor, FillRatioBoundTriggersEarlyRefactorization) {
  const LpProblem p = refactor_mill();
  const auto lazy = xs::solve_lp(p);
  ASSERT_EQ(lazy.status, Status::kOptimal);

  xs::SimplexOptions eager;
  eager.refactor_eta_nnz = 0;       // isolate the ratio trigger
  eager.refactor_fill_ratio = 1e-9; // any fill exceeds the ratio
  const auto tight = xs::solve_lp(p, eager);
  ASSERT_EQ(tight.status, Status::kOptimal);
  EXPECT_NEAR(tight.obj, lazy.obj, 1e-8 * (1.0 + std::abs(lazy.obj)));
  EXPECT_GT(tight.refactorizations, lazy.refactorizations);
}

TEST(SimplexRefactor, DisabledBoundsFallBackToPivotTrigger) {
  const LpProblem p = refactor_mill();
  xs::SimplexOptions opts;
  opts.refactor_eta_nnz = 0;
  opts.refactor_fill_ratio = 0.0;
  const auto s = xs::solve_lp(p, opts);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.obj, xs::solve_lp(p).obj, 1e-8);
}

// ---------------------------------------------------------------------------
// Dense-path LU: the packed factors must answer exactly like the m x m
// dense LU they are stored from.
// ---------------------------------------------------------------------------

namespace {

// The dense path as an m x m algorithm, the reference the packed storage
// must reproduce: column-major LU with partial pivoting in natural slot
// order, the full m x m FTRAN/BTRAN loops, product-form etas.
class DenseLuReference {
 public:
  bool factorize(int m, const std::vector<int>& cp, const std::vector<int>& ci,
                 const std::vector<double>& cx,
                 const std::vector<int>& basis_cols) {
    std::vector<double> a(static_cast<std::size_t>(m) * m, 0.0);
    for (int k = 0; k < m; ++k)
      for (int t = cp[basis_cols[k]]; t < cp[basis_cols[k] + 1]; ++t)
        a[at(m, ci[t], k)] += cx[t];
    std::vector<int> ipiv(m);
    for (int k = 0; k < m; ++k) {
      int piv = k;
      double best = std::abs(a[at(m, k, k)]);
      for (int r = k + 1; r < m; ++r) {
        if (std::abs(a[at(m, r, k)]) > best) {
          best = std::abs(a[at(m, r, k)]);
          piv = r;
        }
      }
      if (best <= 1e-11) return false;  // lu.cpp's singularity floor
      ipiv[k] = piv;
      if (piv != k)
        for (int c = 0; c < m; ++c) std::swap(a[at(m, k, c)], a[at(m, piv, c)]);
      const double d = a[at(m, k, k)];
      for (int r = k + 1; r < m; ++r) a[at(m, r, k)] /= d;
      for (int c = k + 1; c < m; ++c) {
        const double u = a[at(m, k, c)];
        if (u == 0.0) continue;
        for (int r = k + 1; r < m; ++r) a[at(m, r, c)] -= a[at(m, r, k)] * u;
      }
    }
    m_ = m;
    a_ = std::move(a);
    ipiv_ = std::move(ipiv);
    eta_start_.assign(1, 0);
    eta_slot_.clear();
    eta_piv_.clear();
    eta_idx_.clear();
    eta_val_.clear();
    return true;
  }

  void ftran(std::vector<double>& x) const {
    std::vector<double> w(x.begin(), x.begin() + m_);
    for (int k = 0; k < m_; ++k) std::swap(w[k], w[ipiv_[k]]);
    for (int k = 0; k < m_; ++k) {
      const double v = w[k];
      if (v == 0.0) continue;
      for (int r = k + 1; r < m_; ++r) w[r] -= a_[at(m_, r, k)] * v;
    }
    for (int k = m_ - 1; k >= 0; --k) {
      const double v = w[k] / a_[at(m_, k, k)];
      w[k] = v;
      if (v == 0.0) continue;
      for (int r = 0; r < k; ++r) w[r] -= a_[at(m_, r, k)] * v;
    }
    for (std::size_t e = 0; e < eta_slot_.size(); ++e) {
      const int slot = eta_slot_[e];
      const double t = w[slot] / eta_piv_[e];
      w[slot] = t;
      if (t == 0.0) continue;
      for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p)
        w[eta_idx_[p]] -= eta_val_[p] * t;
    }
    std::copy(w.begin(), w.end(), x.begin());
  }

  void btran(std::vector<double>& y) const {
    std::vector<double> w(y.begin(), y.begin() + m_);
    for (int e = static_cast<int>(eta_slot_.size()) - 1; e >= 0; --e) {
      double t = w[eta_slot_[e]];
      for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p)
        t -= eta_val_[p] * w[eta_idx_[p]];
      w[eta_slot_[e]] = t / eta_piv_[e];
    }
    for (int k = 0; k < m_; ++k) {
      double acc = w[k];
      for (int r = 0; r < k; ++r) acc -= a_[at(m_, r, k)] * w[r];
      w[k] = acc / a_[at(m_, k, k)];
    }
    for (int k = m_ - 1; k >= 0; --k) {
      double acc = w[k];
      for (int r = k + 1; r < m_; ++r) acc -= a_[at(m_, r, k)] * w[r];
      w[k] = acc;
    }
    for (int k = m_ - 1; k >= 0; --k) std::swap(w[k], w[ipiv_[k]]);
    std::copy(w.begin(), w.end(), y.begin());
  }

  void update(int leave_slot, const std::vector<double>& alpha) {
    eta_slot_.push_back(leave_slot);
    eta_piv_.push_back(alpha[leave_slot]);
    for (int i = 0; i < m_; ++i) {
      if (i == leave_slot || alpha[i] == 0.0) continue;
      eta_idx_.push_back(i);
      eta_val_.push_back(alpha[i]);
    }
    eta_start_.push_back(static_cast<int>(eta_idx_.size()));
  }

  long update_nnz() const { return static_cast<long>(eta_idx_.size()); }

 private:
  static std::size_t at(int m, int row, int col) {
    return static_cast<std::size_t>(col) * m + row;
  }

  int m_ = 0;
  std::vector<double> a_;
  std::vector<int> ipiv_;
  std::vector<int> eta_start_{0}, eta_slot_, eta_idx_;
  std::vector<double> eta_piv_, eta_val_;
};

// The simplex's basis shape: m structural columns then m logical (unit)
// columns in CSC, and m basis columns in a shuffled slot order.  Structural
// column j has a nonzero in row j plus up to three more entries drawn from
// {0, +1, -1, real} — explicit zeros included.
struct RandomBasis {
  int m = 0;
  std::vector<int> cp{0}, ci;
  std::vector<double> cx;
  std::vector<int> basis_cols;
  std::vector<bool> in_basis;
};

double lu_entry(xplain::util::Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return 0.0;
    case 1: return 1.0;
    case 2: return -1.0;
    default: return rng.uniform(-2.0, 2.0);
  }
}

RandomBasis random_basis(int m, xplain::util::Rng& rng) {
  RandomBasis b;
  b.m = m;
  for (int j = 0; j < m; ++j) {
    b.ci.push_back(j);
    b.cx.push_back(rng.bernoulli(0.5) ? (rng.bernoulli(0.5) ? 1.0 : -1.0)
                                      : rng.uniform(0.5, 2.0));
    const int extra = rng.uniform_int(0, std::min(3, m - 1));
    for (int e = 0; e < extra; ++e) {
      const int r = rng.uniform_int(0, m - 1);
      if (r == j) continue;
      b.ci.push_back(r);
      b.cx.push_back(lu_entry(rng));
    }
    b.cp.push_back(static_cast<int>(b.ci.size()));
  }
  for (int j = 0; j < m; ++j) {
    b.ci.push_back(j);
    b.cx.push_back(1.0);
    b.cp.push_back(static_cast<int>(b.ci.size()));
  }
  b.in_basis.assign(2 * m, false);
  for (int k = 0; k < m; ++k) {
    b.basis_cols.push_back(rng.bernoulli(0.6) ? k : m + k);
    b.in_basis[b.basis_cols.back()] = true;
  }
  rng.shuffle(b.basis_cols);
  return b;
}

// Unit, sparse and dense right-hand sides, each holding exact zeros.
std::vector<std::vector<double>> lu_rhs_set(int m, xplain::util::Rng& rng) {
  std::vector<std::vector<double>> set;
  std::vector<double> unit(m, 0.0);
  unit[rng.uniform_int(0, m - 1)] = 1.0;
  set.push_back(unit);
  std::vector<double> sparse(m, 0.0);
  for (int i = 0; i < 2; ++i) sparse[rng.uniform_int(0, m - 1)] = lu_entry(rng);
  set.push_back(sparse);
  std::vector<double> dense(m);
  for (double& v : dense) v = rng.bernoulli(0.2) ? 0.0 : rng.uniform(-3, 3);
  set.push_back(dense);
  return set;
}

// FTRAN and BTRAN of every rhs agree componentwise (== : +0 and -0 alike).
void expect_same_solves(const xs::LuFactorization& lu,
                        const DenseLuReference& ref,
                        const std::vector<std::vector<double>>& rhs,
                        const std::string& where) {
  for (std::size_t r = 0; r < rhs.size(); ++r) {
    std::vector<double> x = rhs[r], xr = rhs[r];
    lu.ftran(x);
    ref.ftran(xr);
    std::vector<double> y = rhs[r], yr = rhs[r];
    lu.btran(y);
    ref.btran(yr);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], xr[i]) << where << " ftran rhs " << r << " [" << i << "]";
      ASSERT_EQ(y[i], yr[i]) << where << " btran rhs " << r << " [" << i << "]";
    }
  }
}

// Pivots `count` random nonbasic columns into both factorizations, the
// way the simplex does: alpha = FTRAN of the entering column, leave on an
// admissible pivot, update.  Returns the number of updates applied.
int pivot_both(xs::LuFactorization& lu, DenseLuReference& ref,
               RandomBasis& b, int count, xplain::util::Rng& rng) {
  int applied = 0;
  for (int attempt = 0; attempt < 8 * count && applied < count; ++attempt) {
    const int j = rng.uniform_int(0, 2 * b.m - 1);
    if (b.in_basis[j]) continue;
    std::vector<double> alpha(b.m, 0.0), alpha_ref;
    for (int t = b.cp[j]; t < b.cp[j + 1]; ++t) alpha[b.ci[t]] += b.cx[t];
    alpha_ref = alpha;
    lu.ftran(alpha);
    ref.ftran(alpha_ref);
    EXPECT_EQ(alpha, alpha_ref);
    int leave = -1;
    for (int i = 0; i < b.m; ++i)
      if (std::abs(alpha[i]) > 1e-2 && (leave < 0 || rng.bernoulli(0.5)))
        leave = i;
    if (leave < 0) continue;
    lu.update(leave, alpha);
    ref.update(leave, alpha_ref);
    b.in_basis[b.basis_cols[leave]] = false;
    b.in_basis[j] = true;
    b.basis_cols[leave] = j;
    ++applied;
  }
  return applied;
}

}  // namespace

TEST(LuDense, PackedFactorsMatchTheDenseAlgorithm) {
  xplain::util::Rng rng(2024);
  for (int m : {1, 2, 3, 7, 23, 50}) {
    int factored = 0;
    for (int trial = 0; trial < 12; ++trial) {
      RandomBasis b = random_basis(m, rng);
      xs::LuFactorization lu;
      lu.configure(/*dense=*/true);
      DenseLuReference ref;
      const bool ok = lu.factorize(m, b.cp, b.ci, b.cx, b.basis_cols);
      ASSERT_EQ(ok, ref.factorize(m, b.cp, b.ci, b.cx, b.basis_cols))
          << "m " << m << " trial " << trial;
      if (!ok) continue;
      ++factored;
      const std::string where =
          "m " + std::to_string(m) + " trial " + std::to_string(trial);
      // factor_nnz() stays m^2 on the dense path whatever the packed size:
      // it is the base of the fill-ratio refactorization trigger.
      EXPECT_EQ(lu.factor_nnz(), static_cast<long>(m) * m);
      EXPECT_EQ(lu.update_count(), 0);
      EXPECT_EQ(lu.update_nnz(), 0);
      expect_same_solves(lu, ref, lu_rhs_set(m, rng), where + " fresh");
      const int updates = pivot_both(lu, ref, b, 12, rng);
      if (m >= 3) {
        EXPECT_GE(updates, 10) << where;
      }
      EXPECT_EQ(lu.update_count(), updates);
      EXPECT_EQ(lu.update_nnz(), ref.update_nnz());
      EXPECT_EQ(lu.factor_nnz(), static_cast<long>(m) * m);
      expect_same_solves(lu, ref, lu_rhs_set(m, rng), where + " updated");
    }
    EXPECT_GE(factored, 6) << "m " << m;
  }
}

TEST(LuDense, SingularBasisLeavesPreviousFactorsAnswering) {
  xplain::util::Rng rng(77);
  for (int m : {2, 7, 23}) {
    RandomBasis b;
    xs::LuFactorization lu;
    lu.configure(true);
    DenseLuReference ref;
    do {
      b = random_basis(m, rng);
    } while (!ref.factorize(m, b.cp, b.ci, b.cx, b.basis_cols));
    ASSERT_TRUE(lu.factorize(m, b.cp, b.ci, b.cx, b.basis_cols));
    const int updates = pivot_both(lu, ref, b, 10, rng);
    // A basis holding the same column twice is singular.
    std::vector<int> singular = b.basis_cols;
    singular[m - 1] = singular[0];
    EXPECT_FALSE(lu.factorize(m, b.cp, b.ci, b.cx, singular));
    EXPECT_EQ(lu.update_count(), updates);
    EXPECT_EQ(lu.update_nnz(), ref.update_nnz());
    expect_same_solves(lu, ref, lu_rhs_set(m, rng), "m " + std::to_string(m));
  }
}

TEST(LuDense, AssignedFactorsAnswerLikeTheirSource) {
  xplain::util::Rng rng(5);
  // The copy target first holds a larger sparse factorization, so stale
  // storage of another size and representation must not leak through.
  RandomBasis big = random_basis(50, rng);
  xs::LuFactorization copy;
  copy.configure(false);
  DenseLuReference nonsingular;
  while (!nonsingular.factorize(50, big.cp, big.ci, big.cx, big.basis_cols))
    big = random_basis(50, rng);
  ASSERT_TRUE(copy.factorize(50, big.cp, big.ci, big.cx, big.basis_cols));
  for (int m : {1, 7, 23}) {
    RandomBasis b;
    xs::LuFactorization lu;
    lu.configure(true);
    DenseLuReference ref;
    do {
      b = random_basis(m, rng);
    } while (!ref.factorize(m, b.cp, b.ci, b.cx, b.basis_cols));
    ASSERT_TRUE(lu.factorize(m, b.cp, b.ci, b.cx, b.basis_cols));
    pivot_both(lu, ref, b, 10, rng);
    copy.assign_factors(lu);
    EXPECT_EQ(copy.update_count(), lu.update_count());
    EXPECT_EQ(copy.update_nnz(), lu.update_nnz());
    EXPECT_EQ(copy.factor_nnz(), lu.factor_nnz());
    const std::string where = "m " + std::to_string(m);
    expect_same_solves(copy, ref, lu_rhs_set(m, rng), where + " copy");
    // Both keep answering alike through further updates: replay the same
    // pivots (same basis, same random stream) on each.
    DenseLuReference copy_ref = ref;
    RandomBasis copy_basis = b;
    xplain::util::Rng copy_rng = rng;
    const int more = pivot_both(lu, ref, b, 3, rng);
    EXPECT_EQ(pivot_both(copy, copy_ref, copy_basis, 3, copy_rng), more);
    const auto rhs = lu_rhs_set(m, rng);
    expect_same_solves(lu, ref, rhs, where + " source, updated");
    expect_same_solves(copy, copy_ref, rhs, where + " copy, updated");
  }
}

namespace {

// An FTRAN column as a pivot-path memo node stores it: the pivot (leave,
// alpha[leave]) first, then every other nonzero in row order; exact zeros
// of either sign are dropped.
void memo_layout(const std::vector<double>& alpha, int leave,
                 std::vector<int>& rows, std::vector<double>& vals) {
  rows.assign(1, leave);
  vals.assign(1, alpha[leave]);
  for (int i = 0; i < static_cast<int>(alpha.size()); ++i) {
    if (i == leave || alpha[i] == 0.0) continue;
    rows.push_back(i);
    vals.push_back(alpha[i]);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// FTRAN and BTRAN of every rhs agree bit for bit.
void expect_bitwise_solves(const xs::LuFactorization& a,
                           const xs::LuFactorization& b,
                           const std::vector<std::vector<double>>& rhs,
                           const std::string& where) {
  for (std::size_t r = 0; r < rhs.size(); ++r) {
    std::vector<double> xa = rhs[r], xb = rhs[r], ya = rhs[r], yb = rhs[r];
    a.ftran(xa);
    b.ftran(xb);
    a.btran(ya);
    b.btran(yb);
    for (std::size_t i = 0; i < xa.size(); ++i) {
      ASSERT_TRUE(same_bits(xa[i], xb[i]))
          << where << " ftran rhs " << r << " [" << i << "]: " << xa[i]
          << " vs " << xb[i];
      ASSERT_TRUE(same_bits(ya[i], yb[i]))
          << where << " btran rhs " << r << " [" << i << "]: " << ya[i]
          << " vs " << yb[i];
    }
  }
}

}  // namespace

TEST(LuPackedEta, EqualsTheEtaUpdateAppends) {
  // A session's memo replays a product-form eta from its stored entries
  // instead of re-running ftran + update: on the dense and the sparse
  // representations, push_packed_eta of the memo layout must leave the
  // factorization bitwise as update() leaves it.  The alphas carry exact
  // zeros of both signs off the pivot, which update() drops.
  xplain::util::Rng rng(20261019);
  long updates = 0, signed_zeros = 0;
  for (const bool dense : {true, false}) {
    for (int m : {1, 2, 3, 7, 23, 50}) {
      for (int trial = 0; trial < 8; ++trial) {
        RandomBasis b = random_basis(m, rng);
        xs::LuFactorization by_update, by_packed;
        by_update.configure(dense);
        by_packed.configure(dense);
        if (!by_update.factorize(m, b.cp, b.ci, b.cx, b.basis_cols)) continue;
        ASSERT_TRUE(by_packed.factorize(m, b.cp, b.ci, b.cx, b.basis_cols));
        const std::string where = std::string(dense ? "dense" : "sparse") +
                                  " m " + std::to_string(m) + " trial " +
                                  std::to_string(trial);
        int applied = 0;
        std::vector<int> rows;
        std::vector<double> vals;
        for (int attempt = 0; attempt < 96 && applied < 12; ++attempt) {
          const int j = rng.uniform_int(0, 2 * m - 1);
          if (b.in_basis[j]) continue;
          std::vector<double> alpha(m, 0.0);
          for (int t = b.cp[j]; t < b.cp[j + 1]; ++t) alpha[b.ci[t]] += b.cx[t];
          by_update.ftran(alpha);
          int leave = -1;
          for (int i = 0; i < m; ++i)
            if (std::abs(alpha[i]) > 1e-2 && (leave < 0 || rng.bernoulli(0.5)))
              leave = i;
          if (leave < 0) continue;
          for (int i = 0; i < m; ++i) {
            if (i == leave || !rng.bernoulli(0.3)) continue;
            alpha[i] = rng.bernoulli(0.5) ? 0.0 : -0.0;
          }
          for (int i = 0; i < m; ++i)
            signed_zeros += alpha[i] == 0.0 && std::signbit(alpha[i]);
          by_update.update(leave, alpha);
          memo_layout(alpha, leave, rows, vals);
          by_packed.push_packed_eta(rows.data(), vals.data(),
                                    static_cast<int>(rows.size()));
          b.in_basis[b.basis_cols[leave]] = false;
          b.in_basis[j] = true;
          b.basis_cols[leave] = j;
          ++applied;
          ASSERT_EQ(by_packed.update_count(), by_update.update_count()) << where;
          ASSERT_EQ(by_packed.update_nnz(), by_update.update_nnz()) << where;
          expect_bitwise_solves(by_update, by_packed, lu_rhs_set(m, rng),
                                where + " update " + std::to_string(applied));
        }
        if (m >= 3) {
          EXPECT_GE(applied, 10) << where;
        }
        updates += applied;
      }
    }
  }
  EXPECT_GE(updates, 500);
  EXPECT_GE(signed_zeros, 100);
}

namespace {

// Largest |a_i - b_i|, relative to the largest |b_i| (at least 1).
double rel_error(const std::vector<double>& a, const std::vector<double>& b) {
  double diff = 0.0, scale = 1.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return diff / scale;
}

}  // namespace

TEST(LuSparse, SolvesMatchDenseReferenceThroughEtaUpdates) {
  // The sparse path's own arithmetic (Markowitz order, U stored by column
  // with a row adjacency for the BTRAN reach) against the m x m reference,
  // through 0..12 eta updates.  Unit and two-entry rows keep the BTRAN rhs
  // pattern under m / 8 nonzeros even after the etas fill it, so they take
  // the hyper-sparse reach; dense rows take the full gather.
  xplain::util::Rng rng(20261020);
  long checked = 0;
  for (int m : {60, 120, 200}) {
    int factored = 0;
    for (int trial = 0; trial < 6; ++trial) {
      RandomBasis b = random_basis(m, rng);
      xs::LuFactorization lu;
      lu.configure(/*dense=*/false);
      DenseLuReference ref;
      if (!ref.factorize(m, b.cp, b.ci, b.cx, b.basis_cols)) continue;
      ASSERT_TRUE(lu.factorize(m, b.cp, b.ci, b.cx, b.basis_cols));
      ++factored;
      for (int applied = 0;; ++applied) {
        const std::string where = "m " + std::to_string(m) + " trial " +
                                  std::to_string(trial) + " updates " +
                                  std::to_string(applied);
        const auto rhs = lu_rhs_set(m, rng);
        for (std::size_t r = 0; r < rhs.size(); ++r) {
          std::vector<double> x = rhs[r], xr = rhs[r];
          lu.ftran(x);
          ref.ftran(xr);
          ASSERT_LE(rel_error(x, xr), 1e-12) << where << " ftran rhs " << r;
          std::vector<double> y = rhs[r], yr = rhs[r];
          lu.btran(y);
          ref.btran(yr);
          ASSERT_LE(rel_error(y, yr), 1e-12) << where << " btran rhs " << r;
          ++checked;
        }
        if (applied == 12) break;
        // Pivot a random nonbasic column in on a large entry of its FTRAN,
        // as the simplex's ratio tests keep pivots away from tiny ones.
        int j = 0;
        do {
          j = rng.uniform_int(0, 2 * m - 1);
        } while (b.in_basis[j]);
        std::vector<double> alpha(m, 0.0);
        for (int t = b.cp[j]; t < b.cp[j + 1]; ++t) alpha[b.ci[t]] += b.cx[t];
        std::vector<double> alpha_ref = alpha;
        lu.ftran(alpha);
        ref.ftran(alpha_ref);
        double amax = 0.0;
        for (double v : alpha) amax = std::max(amax, std::abs(v));
        int leave = -1;
        for (int i = 0; i < m; ++i)
          if (std::abs(alpha[i]) >= 0.5 * amax &&
              (leave < 0 || rng.bernoulli(0.5)))
            leave = i;
        lu.update(leave, alpha);
        ref.update(leave, alpha_ref);
        b.in_basis[b.basis_cols[leave]] = false;
        b.in_basis[j] = true;
        b.basis_cols[leave] = j;
      }
      EXPECT_EQ(lu.update_count(), 12);
    }
    EXPECT_GE(factored, 3) << "m " << m;
  }
  EXPECT_GE(checked, 600);
}

// ---------------------------------------------------------------------------
// MILP tests.
// ---------------------------------------------------------------------------

TEST(Milp, SimpleKnapsack) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binaries. Optimum: a+c = 17?
  // a,c: w=5 v=17; b+c: w=6 v=20. Optimum 20.
  LpProblem p;
  p.sense = Sense::kMaximize;
  int a = p.add_col(0, 1, 10, true, "a");
  int b = p.add_col(0, 1, 13, true, "b");
  int c = p.add_col(0, 1, 7, true, "c");
  p.add_row({{a, 3}, {b, 4}, {c, 2}}, RowSense::kLe, 6);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.obj, 20.0, 1e-7);
  EXPECT_NEAR(r.x[b], 1.0, 1e-6);
  EXPECT_NEAR(r.x[c], 1.0, 1e-6);
}

TEST(Milp, IntegerRounding) {
  // min x subject to 2x >= 7, x integer -> x = 4.
  LpProblem p;
  int x = p.add_col(0, kInf, 1, true, "x");
  p.add_row({{x, 2}}, RowSense::kGe, 7);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[x], 4.0, 1e-7);
}

TEST(Milp, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6, x integer.
  LpProblem p;
  p.add_col(0.4, 0.6, 1, true, "x");
  auto r = xs::solve_milp(p);
  EXPECT_EQ(r.status, Status::kInfeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2x + y, x integer, x + y <= 3.5, y <= 1.2, x <= 2.9.
  // x=2 (int), y=1.2 -> 5.2.
  LpProblem p;
  p.sense = Sense::kMaximize;
  int x = p.add_col(0, 2.9, 2, true, "x");
  int y = p.add_col(0, 1.2, 1, false, "y");
  p.add_row({{x, 1}, {y, 1}}, RowSense::kLe, 3.5);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.obj, 5.2, 1e-7);
}

TEST(Milp, EqualityWithBinaries) {
  // Choose exactly 2 of 4 binaries minimizing cost.
  LpProblem p;
  std::vector<double> cost = {5, 1, 3, 2};
  std::vector<std::pair<int, double>> sum;
  for (int j = 0; j < 4; ++j)
    sum.emplace_back(p.add_col(0, 1, cost[j], true), 1.0);
  p.add_row(sum, RowSense::kEq, 2);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.obj, 3.0, 1e-7);  // picks costs 1 and 2
}

TEST(Milp, BigMIndicatorPattern) {
  // The big-M pattern used throughout the analyzers: z=1 <=> x <= t.
  // Here force x = 7, t = 5: z must be 0.
  const double M = 100;
  LpProblem p;
  int x = p.add_col(7, 7, 0, false, "x");
  int z = p.add_col(0, 1, -1, true, "z");  // min -z pushes z up
  // x <= t + M(1-z) ; x >= t + eps - M z  with t=5, eps=0.01
  p.add_row({{x, 1}, {z, M}}, RowSense::kLe, 5 + M);
  p.add_row({{x, 1}, {z, M}}, RowSense::kGe, 5.01);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.x[z], 0.0, 1e-7);
}

class RandomMilpProperty : public ::testing::TestWithParam<int> {};

// Cross-validates branch-and-bound against brute-force enumeration of the
// binary columns (continuous part solved by LP for each assignment).
TEST_P(RandomMilpProperty, MatchesBruteForce) {
  xplain::util::Rng rng(777 + GetParam());
  const int nb = rng.uniform_int(2, 6);  // binaries
  const int nc = rng.uniform_int(0, 3);  // continuous
  LpProblem p;
  p.sense = Sense::kMaximize;
  for (int j = 0; j < nb; ++j) p.add_col(0, 1, rng.uniform(-3, 8), true);
  for (int j = 0; j < nc; ++j) p.add_col(0, 4, rng.uniform(-1, 3), false);
  const int m = rng.uniform_int(1, 4);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < nb + nc; ++j)
      coef.emplace_back(j, rng.uniform(0.0, 2.0));
    p.add_row(std::move(coef), RowSense::kLe, rng.uniform(1.0, 8.0));
  }
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);

  // Brute force over binary assignments.
  double best = -kInf;
  for (int mask = 0; mask < (1 << nb); ++mask) {
    LpProblem q = p;
    for (int j = 0; j < nb; ++j) {
      const double v = (mask >> j) & 1;
      q.set_bounds(j, v, v);
    }
    auto s = xs::solve_lp(q);
    if (s.status == Status::kOptimal) best = std::max(best, s.obj);
  }
  ASSERT_TRUE(std::isfinite(best));
  EXPECT_NEAR(r.obj, best, 1e-6 * (1 + std::abs(best)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomMilpProperty, ::testing::Range(0, 30));

TEST(Milp, RespectsNodeLimit) {
  xplain::util::Rng rng(42);
  LpProblem p;
  p.sense = Sense::kMaximize;
  const int n = 30;
  std::vector<std::pair<int, double>> row;
  for (int j = 0; j < n; ++j) {
    row.emplace_back(p.add_col(0, 1, rng.uniform(1.0, 2.0), true),
                     rng.uniform(1.0, 2.0));
  }
  p.add_row(row, RowSense::kLe, n * 0.61);
  xs::MilpOptions opts;
  opts.max_nodes = 5;
  auto r = xs::solve_milp(p, opts);
  EXPECT_LE(r.nodes, 6);
  // With so few nodes we may or may not have an incumbent; status must be
  // kLimit (found something) or kError (nothing proven yet).
  EXPECT_TRUE(r.status == Status::kLimit || r.status == Status::kError);
}

TEST(Milp, BestBoundIsValid) {
  LpProblem p;
  p.sense = Sense::kMaximize;
  int a = p.add_col(0, 1, 3, true);
  int b = p.add_col(0, 1, 2, true);
  p.add_row({{a, 1}, {b, 1}}, RowSense::kLe, 1);
  auto r = xs::solve_milp(p);
  ASSERT_EQ(r.status, Status::kOptimal);
  EXPECT_NEAR(r.obj, 3.0, 1e-7);
  EXPECT_GE(r.best_bound, r.obj - 1e-7);
}
