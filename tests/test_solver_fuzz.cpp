// Solver torture-test suite (ISSUE 6): the sparse-LU revised simplex is
// differential-tested against the retained dense-tableau oracle on ~200+
// seeded LPs — scenario-corpus instances with randomized rhs/bounds plus
// adversarial random constructions (degenerate, rank-deficient, unbounded,
// infeasible) — and the warm-start path is metamorphic-tested: a warm
// re-solve after the rhs/bound moves MaxFlowSolver and solve_milp perform
// must agree with a cold solve, and an injected mid-run refactorization
// failure must fall back to a cold restart instead of reporting an
// unverified optimum.
//
// The pricing axis (ISSUE 8): every solve here honors XPLAIN_TEST_PRICING
// so CI runs the whole suite under both pricing rules, the partial-vs-
// Dantzig differential is asserted directly on the corpus and random
// families, and the Forrest-Tomlin machinery gets its own metamorphic
// coverage (warm == cold with the dense fallback disabled, plus an
// injected update rejection that must cost a refactorization, never the
// answer).
//
// The session axis: an LpSession re-solving under rhs moves from a pinned
// basis must equal the one-shot warm solve_lp bitwise, through infeasible
// verdicts, cold restarts and injected failures, and must not refactorize
// on a typical re-solve.
//
// Every LP here derives from a fixed seed set: a failure reproduces
// identically on any machine and worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "solver/simplex.h"
#include "te/maxflow.h"
#include "util/random.h"

namespace xs = xplain::solver;
using xs::kInf;
using xs::LpProblem;
using xs::RowSense;
using xs::Sense;
using xs::Status;
using xplain::util::Rng;

namespace {

// Per-family LP counts; CoversAtLeast200Lps sums these (order- and
// filter-independent — no global mutable tally).
constexpr int kRandomLps = 60;
constexpr int kDegenerateLps = 25;
constexpr int kRankDeficientLps = 25;
constexpr int kUnboundedLps = 20;
constexpr int kInfeasibleLps = 20;

/// The WCMP case's instance shape over `spec`, whose MaxFlowSolver LP is
/// the routing benchmark the sampling loops solve: `n` pairs with up to `k`
/// candidate paths, rates in [0, d_max], the top capacity tier skewed over
/// [skew_lo, 1].
xplain::te::TeInstance skewed_instance(
    const xplain::scenario::ScenarioSpec& spec, int n, int k, double d_max,
    double skew_lo) {
  xplain::te::TeInstance inst =
      xplain::scenario::make_te_instance(spec, n, k, d_max);
  inst.skew_top_tier(skew_lo, 1.0);
  return inst;
}

/// Baseline options for every solve in this suite.  XPLAIN_TEST_PRICING
/// re-runs the whole file under a chosen pricing rule — CI's sanitizer job
/// invokes it once per mode — so both pivot paths get the full torture
/// treatment: "dantzig" lifts the partial_pricing_min_cols size gate out
/// of reach (a full scan everywhere), "partial" drops it to 0 (the
/// candidate list even on the tiny LPs that dominate here), anything else
/// (including unset) keeps the defaults.
xs::SimplexOptions fuzz_opts() {
  xs::SimplexOptions opts;
  const char* mode = std::getenv("XPLAIN_TEST_PRICING");
  if (mode != nullptr && std::strcmp(mode, "dantzig") == 0)
    opts.partial_pricing_min_cols = std::numeric_limits<int>::max();
  if (mode != nullptr && std::strcmp(mode, "partial") == 0)
    opts.partial_pricing_min_cols = 0;
  return opts;
}

void expect_oracle_agreement(const LpProblem& p, const char* what,
                             long tag) {
  const auto lu = xs::solve_lp(p, fuzz_opts());
  const auto oracle = xs::solve_lp_tableau(p);
  ASSERT_EQ(lu.status, oracle.status)
      << what << " #" << tag << "\n"
      << (p.num_rows() <= 12 ? p.to_string() : std::string("(large LP)"));
  if (lu.status != Status::kOptimal) return;
  EXPECT_NEAR(lu.obj, oracle.obj, 1e-6 * (1.0 + std::abs(oracle.obj)))
      << what << " #" << tag;
  EXPECT_TRUE(p.feasible(lu.x, 1e-6)) << what << " #" << tag;
}

/// Random LP exercising every bound shape and row sense (the
/// test_solver.cpp generator, with occasional empty coefficient rows and
/// larger shapes mixed in).
LpProblem random_lp(Rng& rng, int max_cols = 9, int max_rows = 7) {
  LpProblem p;
  p.sense = rng.bernoulli(0.5) ? Sense::kMaximize : Sense::kMinimize;
  const int n = rng.uniform_int(2, max_cols);
  for (int j = 0; j < n; ++j) {
    const int shape = rng.uniform_int(0, 4);
    double lo = 0.0, hi = kInf;
    if (shape == 0) {
      hi = rng.uniform(0.5, 8.0);
    } else if (shape == 1) {
      lo = -rng.uniform(0.5, 5.0);
      hi = rng.uniform(0.5, 8.0);
    } else if (shape == 2) {
      lo = -kInf;
      hi = rng.uniform(0.0, 6.0);
    } else if (shape == 3) {
      lo = hi = rng.uniform(-2.0, 2.0);
    }
    p.add_col(lo, hi, rng.uniform(-3.0, 3.0));
  }
  const int m = rng.uniform_int(1, max_rows);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.6)) coef.emplace_back(j, rng.uniform(-2.0, 3.0));
    if (coef.empty()) coef.emplace_back(rng.uniform_int(0, n - 1), 1.0);
    const int s = rng.uniform_int(0, 5);
    const RowSense sense = s <= 2   ? RowSense::kLe
                           : s <= 4 ? RowSense::kGe
                                    : RowSense::kEq;
    p.add_row(std::move(coef), sense, rng.uniform(-4.0, 12.0));
  }
  return p;
}

/// The scenario-corpus LPs: one optimal-routing problem per corpus
/// scenario, rhs-randomized per seed the way MaxFlowSolver moves them.
/// Bigger scenarios get fewer seeds (the dense oracle is O(m^2) per
/// pivot); the seed budget keeps the whole suite in ctest territory.
/// `max_rows` drops scenarios above it: the default excludes only the
/// fat-tree(16) entry (~4k rows — far past dense-oracle territory); the
/// pricing differential, which runs the sparse solver on both sides,
/// passes a higher cap to cover it too.
std::vector<std::pair<LpProblem, long>> corpus_lps(int max_rows = 600) {
  std::vector<std::pair<LpProblem, long>> out;
  long tag = 0;
  for (const auto& spec : xplain::scenario::default_corpus()) {
    const auto inst = skewed_instance(spec, /*n=*/6, /*k=*/2,
                                      /*d_max=*/50.0, /*skew_lo=*/0.5);
    const xplain::te::MaxFlowSolver solver(inst);
    const LpProblem& base = solver.problem();
    if (base.num_rows() > max_rows) continue;
    const int seeds = base.num_rows() > 400 ? 2 : base.num_rows() > 150 ? 4 : 20;
    Rng rng(0xC0FFEE ^ spec.seed ^ static_cast<std::uint64_t>(base.num_rows()));
    for (int s = 0; s < seeds; ++s) {
      LpProblem p = base;
      // Move every rhs multiplicatively (demands and capacities both), and
      // occasionally to exactly zero — the skip-commodity encoding.
      for (int i = 0; i < p.num_rows(); ++i) {
        const double f = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.2, 1.2);
        p.set_row_rhs(i, f * std::max(1.0, std::abs(p.row(i).rhs)));
      }
      out.emplace_back(std::move(p), tag++);
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Differential fuzz vs the tableau oracle.
// ---------------------------------------------------------------------------

TEST(SolverFuzz, CorpusLpsMatchOracle) {
  for (const auto& [p, tag] : corpus_lps())
    expect_oracle_agreement(p, "corpus", tag);
}

TEST(SolverFuzz, RandomLpsMatchOracle) {
  Rng rng(20260727);
  for (int t = 0; t < kRandomLps; ++t)
    expect_oracle_agreement(random_lp(rng), "random", t);
}

TEST(SolverFuzz, DegenerateLpsMatchOracle) {
  // Transportation-style LPs with tied rhs values and duplicated rows: the
  // classic degenerate-pivot mill.
  Rng rng(1111);
  for (int t = 0; t < kDegenerateLps; ++t) {
    LpProblem p;
    p.sense = Sense::kMaximize;
    const int n = rng.uniform_int(3, 6);
    for (int j = 0; j < n; ++j) p.add_col(0, 4.0, rng.uniform(0.5, 2.0));
    const double b = rng.uniform_int(1, 3);  // integral tie-prone rhs
    const int m = rng.uniform_int(2, 5);
    for (int i = 0; i < m; ++i) {
      std::vector<std::pair<int, double>> coef;
      for (int j = 0; j < n; ++j)
        if (rng.bernoulli(0.7)) coef.emplace_back(j, 1.0);
      if (coef.empty()) coef.emplace_back(0, 1.0);
      p.add_row(coef, RowSense::kLe, b);
      if (rng.bernoulli(0.4)) p.add_row(coef, RowSense::kLe, b);  // duplicate
    }
    expect_oracle_agreement(p, "degenerate", t);
  }
}

TEST(SolverFuzz, RankDeficientLpsMatchOracle) {
  // row3 = row1 + row2 as equalities: consistent rhs leaves a redundant row
  // (a residual basic artificial the basis export must survive);
  // inconsistent rhs is infeasible.
  Rng rng(2222);
  for (int t = 0; t < kRankDeficientLps; ++t) {
    LpProblem p;
    const int n = rng.uniform_int(3, 6);
    for (int j = 0; j < n; ++j)
      p.add_col(0, rng.uniform(2.0, 8.0), rng.uniform(-2.0, 2.0));
    std::vector<std::pair<int, double>> r1, r2, r3;
    double b1 = 0, b2 = 0;
    for (int j = 0; j < n; ++j) {
      const double a1 = rng.bernoulli(0.7) ? rng.uniform(-2.0, 2.0) : 0.0;
      const double a2 = rng.bernoulli(0.7) ? rng.uniform(-2.0, 2.0) : 0.0;
      if (a1 != 0.0) r1.emplace_back(j, a1);
      if (a2 != 0.0) r2.emplace_back(j, a2);
      if (a1 + a2 != 0.0) r3.emplace_back(j, a1 + a2);
    }
    if (r1.empty()) r1.emplace_back(0, 1.0);
    if (r2.empty()) r2.emplace_back(1, 1.0);
    if (r3.empty()) r3 = r1;
    b1 = rng.uniform(0.0, 5.0);
    b2 = rng.uniform(0.0, 5.0);
    const bool consistent = rng.bernoulli(0.6);
    p.add_row(r1, RowSense::kEq, b1);
    p.add_row(r2, RowSense::kEq, b2);
    p.add_row(r3, RowSense::kEq, consistent ? b1 + b2 : b1 + b2 + 1.0);
    expect_oracle_agreement(p, "rank_deficient", t);
  }
}

TEST(SolverFuzz, UnboundedLpsMatchOracle) {
  Rng rng(3333);
  for (int t = 0; t < kUnboundedLps; ++t) {
    LpProblem p;
    p.sense = Sense::kMaximize;
    const int n = rng.uniform_int(2, 5);
    for (int j = 0; j < n; ++j)
      p.add_col(rng.bernoulli(0.3) ? -kInf : 0.0, kInf,
                rng.uniform(0.1, 2.0));
    // Rows with a nonpositive coefficient per column leave the all-positive
    // objective an escape ray.
    const int m = rng.uniform_int(1, 3);
    for (int i = 0; i < m; ++i) {
      std::vector<std::pair<int, double>> coef;
      for (int j = 0; j < n; ++j)
        if (rng.bernoulli(0.6)) coef.emplace_back(j, -rng.uniform(0.1, 2.0));
      if (coef.empty()) coef.emplace_back(0, -1.0);
      p.add_row(std::move(coef), RowSense::kLe, rng.uniform(0.0, 5.0));
    }
    expect_oracle_agreement(p, "unbounded", t);
  }
}

TEST(SolverFuzz, InfeasibleLpsMatchOracle) {
  Rng rng(4444);
  for (int t = 0; t < kInfeasibleLps; ++t) {
    LpProblem p = random_lp(rng);
    // Pin a contradiction on a random column inside its bounds.
    const int j = rng.uniform_int(0, p.num_cols() - 1);
    p.add_row({{j, 1.0}}, RowSense::kGe, 50.0);
    p.add_row({{j, 1.0}}, RowSense::kLe, -50.0);
    expect_oracle_agreement(p, "infeasible", t);
  }
}

// ---------------------------------------------------------------------------
// Pricing-mode differential: partial pricing changes the pivot path, never
// the verdict.  Both sides run the production sparse solver, so — unlike
// the oracle tests above — the fat-tree(16) corpus entry is affordable and
// gets direct coverage here.
// ---------------------------------------------------------------------------

namespace {

void expect_pricing_agreement(const LpProblem& p, const char* what,
                              long tag) {
  xs::SimplexOptions dantzig, partial;
  dantzig.partial_pricing_min_cols = std::numeric_limits<int>::max();
  partial.partial_pricing_min_cols = 0;  // candidate list even on tiny LPs
  const auto a = xs::solve_lp(p, dantzig);
  const auto b = xs::solve_lp(p, partial);
  ASSERT_EQ(a.status, b.status) << what << " #" << tag;
  if (a.status != Status::kOptimal) return;
  EXPECT_NEAR(a.obj, b.obj, 1e-6 * (1.0 + std::abs(a.obj)))
      << what << " #" << tag;
  EXPECT_TRUE(p.feasible(b.x, 1e-6)) << what << " #" << tag;
}

}  // namespace

TEST(SolverPricing, ModesAgreeOnCorpus) {
  for (const auto& [p, tag] : corpus_lps(/*max_rows=*/1 << 20))
    expect_pricing_agreement(p, "corpus", tag);
}

TEST(SolverPricing, ModesAgreeOnRandomLps) {
  // A distinct seed from RandomLpsMatchOracle: fresh LPs, not a re-check.
  Rng rng(20260807);
  for (int t = 0; t < kRandomLps; ++t)
    expect_pricing_agreement(random_lp(rng), "random", t);
}

TEST(SolverPricing, ModesAgreeUnderForcedSparsePath) {
  // dense_basis_dim=0 pushes even tiny LPs through the sparse FT machinery,
  // so the partial-pricing/FT interaction is exercised where the default
  // dense fallback would otherwise hide it.
  Rng rng(20260808);
  for (int t = 0; t < 30; ++t) {
    const LpProblem p = random_lp(rng);
    xs::SimplexOptions dantzig, partial;
    dantzig.partial_pricing_min_cols = std::numeric_limits<int>::max();
    dantzig.dense_basis_dim = 0;
    partial.partial_pricing_min_cols = 0;
    partial.dense_basis_dim = 0;
    const auto a = xs::solve_lp(p, dantzig);
    const auto b = xs::solve_lp(p, partial);
    ASSERT_EQ(a.status, b.status) << "sparse #" << t;
    if (a.status != Status::kOptimal) continue;
    EXPECT_NEAR(a.obj, b.obj, 1e-6 * (1.0 + std::abs(a.obj))) << "sparse #" << t;
    EXPECT_TRUE(p.feasible(b.x, 1e-6)) << "sparse #" << t;
  }
}

// The acceptance criterion's floor: the suite covers >= 200 distinct
// seeded LPs.  Computed from the family sizes (corpus_lps() regenerates
// deterministically), not from a global execution tally, so the check is
// immune to --gtest_filter / --gtest_shuffle.
TEST(SolverFuzz, CoversAtLeast200Lps) {
  const int total = static_cast<int>(corpus_lps().size()) + kRandomLps +
                    kDegenerateLps + kRankDeficientLps + kUnboundedLps +
                    kInfeasibleLps;
  EXPECT_GE(total, 200);
}

// ---------------------------------------------------------------------------
// Warm-start metamorphic tests: warm == cold after the rhs/bound moves the
// real callers make.
// ---------------------------------------------------------------------------

namespace {

void expect_warm_equals_cold(const LpProblem& q, const xs::Basis& warm_basis,
                             const char* what, long tag,
                             const xs::SimplexOptions& opts = fuzz_opts()) {
  const auto warm = xs::solve_lp(q, opts, &warm_basis);
  const auto cold = xs::solve_lp(q, opts);
  ASSERT_EQ(warm.status, cold.status) << what << " #" << tag;
  if (warm.status != Status::kOptimal) return;
  EXPECT_NEAR(warm.obj, cold.obj, 1e-7 * (1.0 + std::abs(cold.obj)))
      << what << " #" << tag;
  EXPECT_TRUE(q.feasible(warm.x, 1e-6)) << what << " #" << tag;
}

}  // namespace

TEST(SolverWarmMetamorphic, RhsMovesLikeMaxFlowSolver) {
  // The MaxFlowSolver pattern: fixed structure, every solve moves rhs only,
  // warm from one reference basis.
  long warm_engaged = 0;
  for (const auto& spec : xplain::scenario::default_corpus()) {
    const auto inst = skewed_instance(spec, 6, 2, 50.0, 0.5);
    const xplain::te::MaxFlowSolver solver(inst);
    LpProblem p = solver.problem();
    if (p.num_rows() > 150) continue;  // keep the cold re-solves cheap
    const auto ref = xs::solve_lp(p);
    ASSERT_EQ(ref.status, Status::kOptimal) << spec.name();
    Rng rng(0xABCD ^ spec.seed);
    for (int t = 0; t < 10; ++t) {
      LpProblem q = p;
      for (int i = 0; i < q.num_rows(); ++i)
        q.set_row_rhs(i, rng.uniform(0.0, 1.1) *
                             std::max(1.0, std::abs(q.row(i).rhs)));
      const long before = xs::lp_counters().warm_solves;
      expect_warm_equals_cold(q, ref.basis, spec.name().c_str(), t);
      warm_engaged += xs::lp_counters().warm_solves - before;
    }
  }
  // The dual-repair path must actually engage for most perturbations.
  EXPECT_GE(warm_engaged, 20);
}

TEST(SolverWarmMetamorphic, BoundMovesLikeSolveMilp) {
  // The branch-and-bound pattern: tighten column boxes around the parent
  // optimum, warm from the parent basis.
  Rng rng(55555);
  int solved = 0;
  for (int trial = 0; trial < 600 && solved < 120; ++trial) {
    LpProblem p = random_lp(rng);
    const auto parent = xs::solve_lp(p);
    if (parent.status != Status::kOptimal) continue;
    LpProblem q = p;
    const int cuts = rng.uniform_int(1, 3);
    for (int c = 0; c < cuts; ++c) {
      const int j = rng.uniform_int(0, p.num_cols() - 1);
      const double v = parent.x[j];
      if (rng.bernoulli(0.5)) {
        q.set_bounds(j, q.lo(j), std::min(q.hi(j), std::floor(v)));
      } else {
        q.set_bounds(j, std::max(q.lo(j), std::ceil(v)), q.hi(j));
      }
    }
    expect_warm_equals_cold(q, parent.basis, "bound_move", trial);
    ++solved;
  }
  EXPECT_GE(solved, 100);
}

TEST(SolverWarmMetamorphic, WarmEqualsColdUnderForcedSparseFt) {
  // dense_basis_dim=0 disables the tiny-LP dense fallback, so every warm
  // install, dual repair, and pivot below runs on the sparse
  // Forrest-Tomlin representation the fat-tree(16) instances use — the
  // dense path must not be the only one honoring warm == cold.
  xs::SimplexOptions opts = fuzz_opts();
  opts.dense_basis_dim = 0;
  ASSERT_TRUE(opts.ft_updates);  // the default: FT, not the eta baseline
  Rng rng(66666);
  int checked = 0;
  for (int trial = 0; trial < 400 && checked < 80; ++trial) {
    const LpProblem p = random_lp(rng);
    const auto parent = xs::solve_lp(p, opts);
    if (parent.status != Status::kOptimal) continue;
    LpProblem q = p;
    for (int i = 0; i < q.num_rows(); ++i)
      q.set_row_rhs(i, rng.uniform(0.0, 1.1) *
                           std::max(1.0, std::abs(q.row(i).rhs)));
    expect_warm_equals_cold(q, parent.basis, "sparse_ft", trial, opts);
    ++checked;
  }
  EXPECT_GE(checked, 80);
}

// ---------------------------------------------------------------------------
// Session == one-shot: an LpSession with a pinned start basis must solve
// bitwise like solve_lp(q, opts, &start) — status, obj, x, y, basis,
// iterations and every lp_counters() field — after any rhs move, through
// the warm path's infeasible verdict and its cold restarts too.  Only
// LpSolution::refactorizations may differ: the one-shot factorizes the
// basis it installs, the session restores its pinned factorization.
// ---------------------------------------------------------------------------

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double u, double v) { return same_bits(u, v); });
}

struct SessionSolve {
  xs::LpSolution sol;
  long warm_solves = 0;  // lp_counters() delta of the session solve
};

/// Solves `s` at its current rhs and compares against the one-shot solve
/// from `start` (which `s` has pinned; `pinned_warm` is pin()'s verdict).
SessionSolve expect_session_equals_one_shot(xs::LpSession& s,
                                            const xs::Basis& start,
                                            bool pinned_warm,
                                            const xs::SimplexOptions& opts,
                                            const std::string& what,
                                            long tag) {
  SCOPED_TRACE(what + " #" + std::to_string(tag));
  const xs::LpCounters c0 = xs::lp_counters();
  SessionSolve out{s.solve()};
  const xs::LpCounters c1 = xs::lp_counters();
  const xs::LpSolution one = xs::solve_lp(s.problem(), opts, &start);
  const xs::LpCounters c2 = xs::lp_counters();
  const xs::LpSolution& a = out.sol;
  EXPECT_EQ(a.status, one.status);
  EXPECT_TRUE(same_bits(a.obj, one.obj));
  EXPECT_TRUE(same_bits(a.x, one.x));
  EXPECT_TRUE(same_bits(a.y, one.y));
  EXPECT_EQ(a.basis.basic, one.basis.basic);
  EXPECT_EQ(a.basis.at_upper, one.basis.at_upper);
  EXPECT_EQ(a.iterations, one.iterations);
  EXPECT_EQ(c1.solves - c0.solves, c2.solves - c1.solves);
  EXPECT_EQ(c1.iterations - c0.iterations, c2.iterations - c1.iterations);
  EXPECT_EQ(c1.warm_solves - c0.warm_solves, c2.warm_solves - c1.warm_solves);
  EXPECT_EQ(c1.columns_priced - c0.columns_priced,
            c2.columns_priced - c1.columns_priced);
  EXPECT_EQ(c1.candidate_refills - c0.candidate_refills,
            c2.candidate_refills - c1.candidate_refills);
  if (pinned_warm && a.status == Status::kOptimal) {
    EXPECT_EQ(one.refactorizations, a.refactorizations + 1);
  }
  out.warm_solves = c1.warm_solves - c0.warm_solves;
  return out;
}

/// A mid-size LP with enough pivots that refactor_every=1 forces several
/// refactorizations per solve.
LpProblem pivot_mill(Rng& rng) {
  LpProblem p;
  p.sense = Sense::kMaximize;
  const int n = 12;
  std::vector<std::pair<int, double>> sum;
  for (int j = 0; j < n; ++j) {
    const int c = p.add_col(0, rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0));
    sum.emplace_back(c, rng.uniform(0.5, 1.5));
  }
  for (int i = 0; i < 6; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.5)) coef.emplace_back(j, rng.uniform(0.2, 1.5));
    if (coef.empty()) coef = sum;
    p.add_row(std::move(coef), RowSense::kLe, rng.uniform(2.0, 6.0));
  }
  p.add_row(sum, RowSense::kLe, 8.0);
  return p;
}

/// pivot_mill plus an equality row x0 + x1 == 1: a cold start can never
/// keep that row's fixed slack basic at a nonzero rhs, so every cold
/// restart appends an artificial column.  Returns the equality row index.
int add_equality_row(LpProblem& p) {
  p.add_row({{0, 1.0}, {1, 1.0}}, RowSense::kEq, 1.0);
  return p.num_rows() - 1;
}

}  // namespace

TEST(SolverSession, MatchesOneShotOnCorpusRhsMoves) {
  // The sampling-loop pattern on every small corpus routing LP: pin the
  // center-of-box optimum, then move every rhs.
  const xs::SimplexOptions opts = fuzz_opts();
  long solves = 0, warm_engaged = 0;
  for (const auto& spec : xplain::scenario::default_corpus()) {
    const auto inst = skewed_instance(spec, 6, 2, 50.0, 0.5);
    const xplain::te::MaxFlowSolver solver(inst);
    const LpProblem& p = solver.problem();
    if (p.num_rows() > 150) continue;  // keep the one-shot twins cheap
    const auto ref = xs::solve_lp(p, opts);
    ASSERT_EQ(ref.status, Status::kOptimal) << spec.name();
    xs::LpSession session(p, opts);
    const bool pinned = session.pin(ref.basis);
    EXPECT_TRUE(pinned) << spec.name();
    Rng rng(0x5E55 ^ spec.seed ^ static_cast<std::uint64_t>(p.num_rows()));
    for (int t = 0; t < 12; ++t) {
      for (int i = 0; i < p.num_rows(); ++i)
        session.set_row_rhs(i, rng.uniform(0.0, 1.1) *
                                   std::max(1.0, std::abs(p.row(i).rhs)));
      warm_engaged += expect_session_equals_one_shot(
                          session, ref.basis, pinned, opts, spec.name(), t)
                          .warm_solves;
      ++solves;
    }
  }
  EXPECT_GE(solves, 40);
  EXPECT_EQ(warm_engaged, solves);  // the center optimum stays dual-feasible
}

TEST(SolverSession, MatchesOneShotOnRandomLps) {
  // Every bound shape and row sense, rhs moves that also cross into
  // infeasibility, under the dense LU and both sparse update schemes (the
  // restore copies whichever representation the pin factorized).
  xs::SimplexOptions sparse_ft = fuzz_opts();
  sparse_ft.dense_basis_dim = 0;
  xs::SimplexOptions sparse_eta = sparse_ft;
  sparse_eta.ft_updates = false;
  const std::pair<const char*, xs::SimplexOptions> modes[] = {
      {"dense", fuzz_opts()}, {"sparse_ft", sparse_ft},
      {"sparse_eta", sparse_eta}};
  for (const auto& [name, opts] : modes) {
    Rng rng(20261016);
    int sessions = 0;
    long infeasible = 0, pivoted = 0;
    for (int trial = 0; trial < 200 && sessions < 40; ++trial) {
      const LpProblem p = random_lp(rng);
      const auto parent = xs::solve_lp(p, opts);
      if (parent.status != Status::kOptimal) continue;
      xs::LpSession session(p, opts);
      const bool pinned = session.pin(parent.basis);
      for (int t = 0; t < 10; ++t) {
        for (int i = 0; i < p.num_rows(); ++i)
          session.set_row_rhs(i, rng.uniform(-0.5, 1.5) *
                                     std::max(1.0, std::abs(p.row(i).rhs)));
        const auto r = expect_session_equals_one_shot(
            session, parent.basis, pinned, opts, name, trial * 100 + t);
        infeasible += r.sol.status == Status::kInfeasible;
        pivoted += r.sol.iterations > 0;
      }
      ++sessions;
    }
    EXPECT_EQ(sessions, 40) << name;
    EXPECT_GE(infeasible, 20) << name;
    EXPECT_GE(pivoted, 100) << name;
  }
}

TEST(SolverSession, InfeasibleRhsGivesTheDualUnboundedVerdict) {
  // Pushing the equality row out of reach of the column boxes leaves the
  // pinned basis dual-feasible but primal-empty: the repair's ratio test
  // finds no entering column (dual unbounded) and reports kInfeasible from
  // the warm path, exactly as the one-shot does.
  // The pinned factorization is attempt 1, so fail_refactor_at=2 would
  // fail the factorize of any cold restart (kError): a kInfeasible below
  // can only be the warm path's verdict.
  xs::SimplexOptions opts;
  opts.fail_refactor_at = 2;
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    LpProblem p = pivot_mill(rng);
    const int eq = add_equality_row(p);
    const auto ref = xs::solve_lp(p);
    ASSERT_EQ(ref.status, Status::kOptimal);
    xs::LpSession session(p, opts);
    const bool pinned = session.pin(ref.basis);
    ASSERT_TRUE(pinned);
    for (int t = 0; t < 10; ++t) {
      session.set_row_rhs(eq, rng.uniform(7.0, 50.0));  // x0 + x1 <= 6
      const auto r = expect_session_equals_one_shot(session, ref.basis,
                                                    pinned, opts, "eq_out", t);
      EXPECT_EQ(r.sol.status, Status::kInfeasible);
      EXPECT_EQ(r.warm_solves, 1);
    }
  }
}

TEST(SolverSession, ColdRestartsThenPinnedSolvesMatchOneShot) {
  // Two ways a pinned repair gives up and restarts cold — an exhausted
  // max_iterations, and a failed mid-repair refactorization (the pinned
  // factorization is attempt 1, so fail_refactor_at=2 hits the first
  // refactorization after the restore, as in solve_lp) — each followed by
  // a solve at the pin point, which must restore cleanly although the cold
  // start appended an artificial column for the equality row.
  xs::SimplexOptions tight;
  tight.max_iterations = 1;
  xs::SimplexOptions failing;
  failing.refactor_every = 1;
  failing.fail_refactor_at = 2;
  const std::pair<const char*, xs::SimplexOptions> modes[] = {
      {"max_iterations", tight}, {"fail_refactor_at", failing}};
  for (const auto& [name, opts] : modes) {
    Rng rng(777);
    long fallbacks = 0, clean_after = 0;
    for (int trial = 0; trial < 20; ++trial) {
      LpProblem p = pivot_mill(rng);
      add_equality_row(p);
      const auto ref = xs::solve_lp(p);
      ASSERT_EQ(ref.status, Status::kOptimal);
      xs::LpSession session(p, opts);
      const bool pinned = session.pin(ref.basis);
      ASSERT_TRUE(pinned);
      for (int t = 0; t < 10; ++t) {
        for (int i = 0; i < p.num_rows(); ++i)
          session.set_row_rhs(i, rng.uniform(0.3, 1.5) * p.row(i).rhs);
        const auto far = expect_session_equals_one_shot(
            session, ref.basis, pinned, opts, name, trial * 100 + t);
        // The repair pivoted and gave up: a cold restart followed (its
        // limit verdict, or a cold re-solve of the whole LP).
        const bool fell_back =
            far.warm_solves == 1 && far.sol.iterations > 0 &&
            (far.sol.status == Status::kLimit ||
             far.sol.refactorizations >= 1);
        fallbacks += fell_back;
        for (int i = 0; i < p.num_rows(); ++i)
          session.set_row_rhs(i, p.row(i).rhs);
        const auto home = expect_session_equals_one_shot(
            session, ref.basis, pinned, opts, name, trial * 100 + t + 50);
        EXPECT_EQ(home.sol.status, Status::kOptimal);
        EXPECT_EQ(home.sol.iterations, 0);  // the pinned basis is optimal
        EXPECT_NEAR(home.sol.obj, ref.obj, 1e-9 * (1.0 + std::abs(ref.obj)));
        clean_after += fell_back && home.sol.status == Status::kOptimal;
      }
    }
    EXPECT_GE(fallbacks, 50) << name;
    EXPECT_EQ(clean_after, fallbacks) << name;
  }
}

TEST(SolverSession, RejectedUpdateCostsARefactorizationNotTheAnswer) {
  // fail_update_at inside a session: the rejected Forrest-Tomlin update
  // refactorizes mid-repair, which a pinned solve reports (its restore
  // reports none), and the answer still matches the one-shot bitwise.
  xs::SimplexOptions clean = fuzz_opts();
  clean.dense_basis_dim = 0;  // the sparse FT path
  xs::SimplexOptions inj = clean;
  inj.fail_update_at = 1;
  Rng rng(9191);
  long injected = 0, plain_refactors = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const LpProblem p = pivot_mill(rng);
    const auto ref = xs::solve_lp(p, clean);
    ASSERT_EQ(ref.status, Status::kOptimal);
    xs::LpSession plain(p, clean), hurt(p, inj);
    ASSERT_TRUE(plain.pin(ref.basis));
    ASSERT_TRUE(hurt.pin(ref.basis));
    for (int t = 0; t < 10; ++t) {
      for (int i = 0; i < p.num_rows(); ++i) {
        const double rhs = rng.uniform(0.3, 1.2) * p.row(i).rhs;
        plain.set_row_rhs(i, rhs);
        hurt.set_row_rhs(i, rhs);
      }
      const auto a = expect_session_equals_one_shot(plain, ref.basis, true,
                                                    clean, "clean", t);
      const auto b = expect_session_equals_one_shot(hurt, ref.basis, true,
                                                    inj, "inj", t);
      ASSERT_EQ(a.sol.status, Status::kOptimal);
      ASSERT_EQ(b.sol.status, Status::kOptimal);
      EXPECT_NEAR(a.sol.obj, b.sol.obj, 1e-7 * (1.0 + std::abs(a.sol.obj)));
      plain_refactors += a.sol.refactorizations;
      injected += b.sol.refactorizations >= 1;
    }
  }
  EXPECT_GE(injected, 50);
  EXPECT_LT(plain_refactors, injected);
}

TEST(SolverSession, PinnedResolvesDoNotRefactorize) {
  // The mechanism the sampling loops buy, as a machine-independent count:
  // >= 1000 pinned re-solves each on the fat-tree(4) WCMP LP and the
  // fat-tree(4) DP max-flow LP, rhs drawn from the callers' input boxes,
  // refactorize at most 0.2 times per solve (a one-shot warm solve
  // factorizes its start basis every time: >= 1 per solve).
  xplain::scenario::ScenarioSpec ft4;
  ft4.kind = xplain::scenario::TopologyKind::kFatTree;
  ft4.size = 4;
  const auto lb_inst = skewed_instance(ft4, 8, 3, 100.0, 0.25);
  const auto te_inst = xplain::scenario::make_te_instance(ft4, 6, 2, 100.0);
  const xplain::te::MaxFlowSolver lb_solver(lb_inst);
  const xplain::te::MaxFlowSolver te_solver(te_inst);
  struct Case {
    const char* name;
    const LpProblem* p;  // rhs at the input-box center
    int demand_rows;     // rows 0..demand_rows-1; capacity rows after
  };
  const Case cases[] = {
      {"wcmp_ft4", &lb_solver.problem(), lb_inst.num_pairs()},
      {"dp_ft4", &te_solver.problem(), te_inst.num_pairs()}};
  for (const auto& [name, p, demand_rows] : cases) {
    xs::SimplexOptions opts;
    opts.want_duals = opts.want_basis = false;
    const auto ref = xs::solve_lp(*p);
    ASSERT_EQ(ref.status, Status::kOptimal) << name;
    xs::LpSession session(*p, opts);
    ASSERT_TRUE(session.pin(ref.basis)) << name;
    Rng rng(1234);
    long solves = 0, refactorizations = 0, optimal = 0;
    for (; solves < 1000; ++solves) {
      // Demands anywhere in [0, 2 x center]; capacities scaled together.
      const double cap_scale = rng.uniform(0.25, 1.0);
      for (int i = 0; i < p->num_rows(); ++i) {
        const double center = p->row(i).rhs;
        session.set_row_rhs(i, i < demand_rows
                                   ? rng.uniform(0.0, 2.0) * center
                                   : cap_scale * center);
      }
      const auto s = session.solve();
      optimal += s.status == Status::kOptimal;
      refactorizations += s.refactorizations;
    }
    EXPECT_EQ(optimal, solves) << name;
    EXPECT_LE(refactorizations, solves / 5) << name;
  }
}

// ---------------------------------------------------------------------------
// Injected refactorization failure (SimplexOptions::fail_refactor_at): the
// stale-representation verdicts must stay honest.
// ---------------------------------------------------------------------------

TEST(SolverRefactorFailure, ColdSolveReportsErrorNotBogusOptimum) {
  Rng rng(777);
  int injected = 0;
  for (int t = 0; t < 20; ++t) {
    LpProblem p = pivot_mill(rng);
    const auto clean = xs::solve_lp(p);
    ASSERT_EQ(clean.status, Status::kOptimal);
    // With refactor_every=1 below, refactorization calls ~= 1 (initial) +
    // pivots; the injected 3rd call needs a few pivots to be reached.
    if (clean.iterations < 4) continue;
    xs::SimplexOptions opts;
    opts.refactor_every = 1;
    opts.fail_refactor_at = 3;  // initial factorize is call 1
    const auto hurt = xs::solve_lp(p, opts);
    // Every verdict derived from the stale representation must be kError —
    // never a silently wrong optimum.
    EXPECT_EQ(hurt.status, Status::kError) << "trial " << t;
    ++injected;
  }
  EXPECT_GE(injected, 5);
}

TEST(SolverRefactorFailure, WarmSolveFallsBackToColdRestart) {
  Rng rng(888);
  int injected = 0;
  for (int t = 0; t < 40 && injected < 8; ++t) {
    LpProblem p = pivot_mill(rng);
    const auto parent = xs::solve_lp(p);
    ASSERT_EQ(parent.status, Status::kOptimal);
    LpProblem q = p;
    for (int j = 0; j < q.num_cols(); ++j)
      if (rng.bernoulli(0.4))
        q.set_bounds(j, q.lo(j), std::max(q.lo(j), q.hi(j) * 0.5));
    const auto cold = xs::solve_lp(q);

    xs::SimplexOptions opts;
    opts.refactor_every = 1;

    // Probe without injection: count this trial only if the warm path
    // engaged AND pivoted.  With refactor_every=1 the first pivot
    // immediately refactorizes, and the injected run below is bitwise
    // identical up to that call — so the probe proves factorize call #2
    // really fires there.
    const long warm_before = xs::lp_counters().warm_solves;
    const auto probe = xs::solve_lp(q, opts, &parent.basis);
    const bool engaged = xs::lp_counters().warm_solves - warm_before == 1;
    if (!engaged || probe.iterations < 1) continue;

    // Call 1 is warm_install's factorize; call 2 is the first mid-repair
    // refactorization.  Its failure poisons the warm attempt, which must
    // restart cold (whose own factorize then succeeds).
    opts.fail_refactor_at = 2;
    const auto warm = xs::solve_lp(q, opts, &parent.basis);
    ASSERT_EQ(warm.status, cold.status) << "trial " << t;
    if (warm.status == Status::kOptimal) {
      EXPECT_NEAR(warm.obj, cold.obj, 1e-7 * (1.0 + std::abs(cold.obj)));
      EXPECT_TRUE(q.feasible(warm.x, 1e-6));
    }
    ++injected;
  }
  EXPECT_GE(injected, 8);
}

// ---------------------------------------------------------------------------
// Injected Forrest-Tomlin rejection (SimplexOptions::fail_update_at): a
// rejected update is the designed fallback — it costs one refactorization
// and must never change the answer.  (The real rejections fire on small
// FTRAN pivots or elimination blow-up; the hook makes the path
// deterministic instead of waiting for a numerically nasty basis.)
// ---------------------------------------------------------------------------

TEST(SolverFtRejection, RejectedUpdateRefactorizesAndMatchesCleanSolve) {
  Rng rng(9090);
  int injected = 0;
  for (int t = 0; t < 30; ++t) {
    const LpProblem p = pivot_mill(rng);
    xs::SimplexOptions opts = fuzz_opts();
    opts.dense_basis_dim = 0;  // force the sparse FT path
    const auto clean = xs::solve_lp(p, opts);
    ASSERT_EQ(clean.status, Status::kOptimal) << "trial " << t;
    // fail_update_at=2 needs a second basis-update attempt to exist.
    if (clean.iterations < 3) continue;
    xs::SimplexOptions inj = opts;
    inj.fail_update_at = 2;
    const auto hurt = xs::solve_lp(p, inj);
    // Unlike a refactorization failure (which poisons the representation),
    // a rejected update recovers in-solve: same verdict, same optimum, one
    // extra refactorization on the books.
    ASSERT_EQ(hurt.status, Status::kOptimal) << "trial " << t;
    EXPECT_NEAR(hurt.obj, clean.obj, 1e-7 * (1.0 + std::abs(clean.obj)))
        << "trial " << t;
    EXPECT_TRUE(p.feasible(hurt.x, 1e-6)) << "trial " << t;
    EXPECT_GE(hurt.refactorizations, clean.refactorizations) << "trial " << t;
    ++injected;
  }
  EXPECT_GE(injected, 10);
}
