// The optimal benchmark for the load-balancing case: maximum splittable
// routing over the candidate path sets, encoded through the model layer
// (model::Model -> solver).  With the default options the encoding is a
// pure LP — splittable routing needs no integrality — and is exact; capping
// the number of active paths per commodity (hardware WCMP tables hold only
// a few next-hop groups) adds binary activation variables and turns the
// same encoding into an exact MILP solved by branch-and-bound.
#pragma once

#include <vector>

#include "lb/instance.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace xplain::lb {

struct LbOptimalOptions {
  /// Max candidate paths a commodity may use (0 = unlimited: pure LP).
  int max_paths_per_commodity = 0;
  /// Branch-and-bound knobs for the path-limited MILP variant.
  solver::MilpOptions milp;
};

struct LbOptimalResult {
  bool feasible = false;
  double total = 0.0;
  /// flow[k][p]: optimal rate of commodity k on its candidate path p.
  std::vector<std::vector<double>> flow;
};

/// Solves the optimal splittable routing at analyzer input `x` (rates plus
/// the optional capacity-skew dimension).
LbOptimalResult solve_lb_optimal(const LbInstance& inst,
                                 const std::vector<double>& x,
                                 const LbOptimalOptions& opts = {});

/// Hot-loop twin of solve_lb_optimal's default (pure-LP, unlimited paths)
/// configuration, built like te::MaxFlowSolver: the LP is compiled once per
/// instance into a pinned solver::LpSession and every solve only moves row
/// right-hand sides (demands and skewed capacities).  The session pins a
/// fixed center-of-box reference basis, and every solve restores that same
/// pinned state — never the previous sample's — so a solve is a pure
/// function of `x`, bitwise equal to a one-shot warm solve_lp from the
/// reference basis: history cannot change results, preserving parallel
/// determinism with per-thread instances (see the cache in
/// cases/lb_case.cpp).  Not thread-safe.
class LbOptimalSolver {
 public:
  explicit LbOptimalSolver(const LbInstance& inst);

  /// Total only (the flow extraction solve_lb_optimal offers is not needed
  /// on the gap path).  Negative on solver failure (never in practice: the
  /// LP is always feasible and bounded).
  double solve_total(const std::vector<double>& x);

  /// The compiled LP (row/column counts feed the solver-scale reporting in
  /// bench_lb_wcmp); rhs as of the last solve, or the input-box center
  /// before the first.
  const solver::LpProblem& problem() const { return session_.problem(); }

  /// The instance's path_links(), resolved once for the WCMP side of the
  /// gap (lb_gap_cached's wcmp_total).
  const te::PathLinks& path_links() const { return path_links_; }

 private:
  LbInstance inst_;  // own copy: cache entries may outlive their builder
  te::PathLinks path_links_;
  solver::LpSession session_;
};

/// Optimal splittable total minus WCMP total, reusing a prebuilt solver and
/// its resolved path links (the hot path behind lb_gap; see wcmp.h).
double lb_gap_cached(const LbInstance& inst, const std::vector<double>& x,
                     LbOptimalSolver& opt);

}  // namespace xplain::lb
