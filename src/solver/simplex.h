// Bounded-variable revised simplex.
//
// The production LP solver: column bounds are handled natively (no bound
// rows, no variable splitting — on the FF/DP MILP encodings this roughly
// halves the row count versus the old dense tableau), constraint rows are
// stored sparsely, and the optimal basis is returned in LpSolution so
// callers can warm-start the next solve.  Warm starts restore the caller's
// basis and, when bound tightenings broke primal feasibility, repair it
// with a dual-simplex phase — the classic branch-and-bound re-solve, which
// typically needs a handful of pivots instead of a from-scratch solve.  A
// pinned LpSession (below) goes further: its repair replays the pivot
// paths it has already taken, and only the rhs-dependent half of each
// replayed pivot is computed.
//
// Pricing is partial (candidate-list) with a full-scan optimality proof —
// see SimplexOptions::partial_pricing_min_cols; small LPs keep the plain
// Dantzig scan, where a full scan costs no more than a refill.  A session
// whose repair ends on a basis its memo has proved optimal skips that scan
// and counts it (columns_priced, candidate_refills) as if it had run.
// Anti-cycling is a Bland's-rule fallback after a run of degenerate
// pivots, which always full-scans.  The basis representation is
// refactorized periodically for numerical hygiene.
//
// Scope note: this is the Gurobi stand-in for the XPlain reproduction.  It
// is exact; the basis is kept as a sparse LU factorization with
// product-form eta updates and hyper-sparse BTRAN (solver/lu.h; a dense LU
// handles tiny bases), so FTRAN/BTRAN and pivots cost O(nnz) instead of
// the dense O(m^2) of an explicit inverse — the trade that matters once
// scenario instances reach fat-tree(16) scale (~8k rows).
#pragma once

#include <memory>

#include "solver/lp.h"

namespace xplain::solver {

/// Tolerances of solve_lp, LpSession and the tableau oracle.
inline constexpr double kFeasTol = 1e-7;   // primal feasibility / phase-1
inline constexpr double kPivotTol = 1e-9;  // minimum admissible pivot
inline constexpr double kCostTol = 1e-9;   // reduced-cost optimality

struct SimplexOptions {
  long max_iterations = 200'000;
  /// Refactorize the basis every this many pivots (the blind trigger; the
  /// two bounds below fire earlier when the eta file grows fat).
  int refactor_every = 96;
  /// Refactorize when the eta file holds at least this many nonzeros
  /// (absolute backstop on accumulated fill; <= 0 disables).
  long refactor_eta_nnz = 65'536;
  /// Refactorize when the eta file's nonzeros exceed this multiple of the
  /// factorization's own size (nnz(L) + nnz(U), diagonal included):
  /// dense-ish eta columns then trigger an early refactorization instead
  /// of taxing every subsequent FTRAN/BTRAN (<= 0 disables).
  double refactor_fill_ratio = 8.0;
  /// Primal pricing is a full Dantzig scan (every nonbasic column priced
  /// every pivot) while the column count (structurals + logicals) is at
  /// most this, and partial (candidate-list) pricing above it: a bucket of
  /// violating columns is re-priced each pivot, and when it runs dry a
  /// rotating cyclic scan (resuming where the previous refill stopped)
  /// collects the next bucketful.  The rotation spreads entering
  /// candidates across the whole column range — a top-K-by-violation
  /// bucket collapses into Bland's rule on degenerate LPs where thousands
  /// of columns tie at the same reduced cost — and lets most refills stop
  /// early.  Optimality is only ever declared after a refill wraps the
  /// full column range and finds no violation, and Bland's anti-cycling
  /// rule always full-scans, so the rule changes the pivot path, never
  /// the answer.
  ///
  /// Scanning a thousand reduced costs is microseconds — the candidate
  /// list only pays once scans dominate pivots (thousands of columns; the
  /// O(n) scan dominates at fat-tree(16) scale, ~20k columns) — while the
  /// rotation's path perturbation just lengthens the pivot path on small
  /// LPs (the DP MILP sampling loops pivot ~40% more under unconditional
  /// partial pricing).  <= 0 engages the list everywhere;
  /// std::numeric_limits<int>::max() gives a Dantzig scan everywhere.
  int partial_pricing_min_cols = 1024;
  /// Bases with at most this many rows are factorized with dense-elimination
  /// arithmetic (partial pivoting in natural slot order) instead of the
  /// sparse Markowitz ordering.  Both absorb pivots as product-form etas
  /// and store their factors packed by nonzero pattern, so this picks the
  /// factorization arithmetic (and with it the pivot path), not the solve
  /// cost: dense-path FTRAN/BTRAN run in O(m + nnz + eta nnz).  <= 0 forces
  /// the sparse path everywhere.
  int dense_basis_dim = 50;
  /// Test-only failure injection: the Nth refactorization attempt of a
  /// solve_lp call reports failure (1-based; 0 disables).  Exercises the
  /// stale-representation fallbacks — warm solves restart cold, cold solves
  /// report kError instead of an unverified optimum.  In an LpSession
  /// solve the pinned factorization keeps the number it had when pin()
  /// made it (attempt 1, replayed by every restore; none when the basis
  /// was rejected before factorizing), so attempts are numbered exactly as
  /// in the equivalent solve_lp(p, opts, &start): N >= 2 fails the same
  /// refactorization, and N == 1 fails the pin itself, after which every
  /// session solve starts cold.
  int fail_refactor_at = 0;
  /// Skip computing row duals / exporting the optimal basis on kOptimal.
  /// Sampling-loop callers that use neither shave the extraction work from
  /// every one of their millions of tiny solves.
  bool want_duals = true;
  bool want_basis = true;
};

/// Solves the relaxation of `p` (integrality markers are ignored).
///
/// On kOptimal the solution carries primal values for every column, dual
/// values for every row with the convention y_i = d(obj)/d(rhs_i) for the
/// problem's stated sense, and the optimal Basis.
///
/// `warm`, when non-null, must be a basis returned by a previous solve of a
/// problem with the *same structure* — identical columns and row
/// coefficients; bounds AND row right-hand sides may differ.  (Bound moves
/// are the branch-and-bound situation; rhs moves are the resampling
/// situation, served by LpSession below.  Both only perturb primal
/// feasibility, which the dual-simplex repair phase restores — dual
/// feasibility of a basis never depends on bounds or rhs.)  The solver
/// re-installs the basis, repairs, and falls back to a cold solve if the
/// basis is stale or singular.  Warm starts never change the answer, only
/// the path to it.
LpSolution solve_lp(const LpProblem& p, const SimplexOptions& opts = {},
                    const Basis* warm = nullptr);

/// A resident LP for the sampling loops: one problem whose structure,
/// bounds and options never change, re-solved as only its row right-hand
/// sides move.  The problem is compiled into the simplex's column, cost and
/// bound arrays once, and pin() installs one start basis once — nonbasic
/// snap, factorization, phase-2 duals, dual-feasibility verdict — keeping
/// that state.  Each solve() restores it, computes only the basic values
/// for the current rhs, and continues down solve_lp's own warm path: dual
/// repair, primal, extraction, and a cold restart wherever solve_lp would
/// restart (a malformed, singular or dual-infeasible pinned basis, an
/// exhausted max_iterations, a factorization failure mid-repair).
///
/// Contract: every solve() is bitwise equal to
/// solve_lp(problem(), opts, &start) — or solve_lp(problem(), opts) with
/// nothing pinned — in status, obj, x, y, basis, iterations and every
/// lp_counters() field.  Only LpSolution::refactorizations differs: a
/// restore is not a factorization.  Because every solve restores the same
/// fixed state, never the previous solve's, results are pure functions of
/// the rhs whatever the call history.
///
/// Pivot-path memo.  The sampling loops re-solve near the same points, so
/// most repair pivots retrace a path the session already took.  A pinned
/// session keeps those paths in a tree rooted at the pinned basis.  An edge
/// is one repair step, keyed by (leaving row, side of its violated bound),
/// and stores the step's rhs-independent half: the entering column and its
/// FTRAN column (or "no entering column", the infeasible verdict).  A node
/// stores, once known, that the post-repair primal check proved its basis
/// optimal without a pivot, and what that check counted.  A solve walks
/// the tree.  On a hit it computes only the rhs-dependent half: the leaving
/// row, and the basic values' update over the stored nonzeros.  It skips
/// both BTRANs, the dual ratio test, the FTRAN and the basis update, and
/// the primal check at a node known optimal.  On a miss it first brings
/// the factorization up to the path, then computes the step as solve_lp
/// does and records it.  A node stores exactly the product-form eta its
/// pivot appended, so bringing the factorization up appends the path's
/// stored etas as they are.
///
/// Why it is exact: the key is computed, never cached, and a session's
/// bounds, costs and columns never change.  So the basis, statuses and
/// factorization after k repair pivots depend only on the pin and the
/// first k keys, and every stored value is one the unmemoized code would
/// compute again from the same state.  The one exception is a step that
/// refactorizes: it recomputes the basic values from the rhs, so it is
/// never recorded, and the solve runs unmemoized from there.  Memoized
/// steps advance the refactorization counters exactly as their pivots did,
/// so the fail_refactor_at test hook counts as in solve_lp.  The memo is
/// bounded by a fixed byte budget in simplex.cpp (256 KB of allocated
/// arena, no option).  The solve that finds it full finishes without
/// recording, and the next solve drops every path and regrows the tree
/// from the root in the same arenas, so the memo follows the sampling
/// loops as they move from one region to the next.  solve_lp itself never
/// memoizes.
///
/// Not thread-safe: use one session per thread.
class LpSession {
 public:
  /// Compiles `problem`; `opts` apply to every pin() and solve().
  explicit LpSession(LpProblem problem, const SimplexOptions& opts = {});
  ~LpSession();
  LpSession(LpSession&&) noexcept;
  LpSession& operator=(LpSession&&) noexcept;

  const LpProblem& problem() const;

  /// Moves row i's right-hand side (coefficients and sense stay).
  void set_row_rhs(int i, double rhs);

  /// Makes `start` (a basis of this structure) the start of every later
  /// solve.  Returns true when solves will start warm from it; false for
  /// an empty, malformed, singular or dual-infeasible basis, after which
  /// solves start cold, exactly as solve_lp would with that basis.
  bool pin(const Basis& start);

  LpSolution solve();

  /// Dual-repair steps served from the pivot-path memo over the session's
  /// lifetime: replayed pivots, and replayed infeasible (dual-unbounded)
  /// verdicts.  Observability for tests; not an lp_counters() field, which
  /// must equal the one-shot's.
  long replayed_pivots() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// The old dense two-phase tableau implementation, retained as a reference
/// oracle for tests (exact but slow; no bounds handling beyond row
/// encodings, no warm starts).
LpSolution solve_lp_tableau(const LpProblem& p, const SimplexOptions& opts = {});

}  // namespace xplain::solver
