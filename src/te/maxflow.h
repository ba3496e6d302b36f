// Optimal multi-commodity path-based max-flow (the OPT benchmark in the
// paper's DP example): maximize total routed traffic subject to per-demand
// caps and link capacities.
#pragma once

#include <optional>
#include <vector>

#include "solver/simplex.h"
#include "te/demand.h"

namespace xplain::te {

struct FlowResult {
  bool feasible = false;
  double total = 0.0;
  /// flow[k][p]: flow of pair k on its candidate path p.
  std::vector<std::vector<double>> flow;

  /// Flow on each link aggregated over paths.
  std::vector<double> link_utilization(const TeInstance& inst) const;
};

/// Solves max-flow with demands `d` (one entry per pair).  Residual
/// capacities may be passed to solve the post-pinning subproblem; defaults
/// to the topology's capacities.  `skip[k]` excludes pair k (already-pinned
/// demands).
FlowResult solve_max_flow(const TeInstance& inst, const std::vector<double>& d,
                          const std::vector<double>* residual_caps = nullptr,
                          const std::vector<bool>* skip = nullptr);

/// Reusable max-flow LP for one TE instance, resident in a pinned
/// solver::LpSession: the column/row structure is compiled ONCE, over every
/// pair's columns, and each solve only moves row right-hand sides (demands,
/// residual capacities; a skipped pair is a demand rhs of 0).
///
/// The session pins one fixed *reference basis* (from a cold solve at the
/// center of the demand box during construction), installed once.  Every
/// solve restores that same pinned state — never the previous sample's
/// basis — and repairs from there, so solve() is a pure function of its
/// arguments and bitwise equal to a one-shot warm solve_lp from the
/// reference basis.  That is what keeps the parallel sampling loops bitwise
/// deterministic for any worker count even though each worker thread owns
/// its own solver (see the per-thread cache in cases/dp_case.cpp).
///
/// Not thread-safe: use one instance per thread.
class MaxFlowSolver {
 public:
  explicit MaxFlowSolver(const TeInstance& inst);

  /// Same contract as solve_max_flow (demands d, optional residual
  /// capacities, optional skipped pairs).
  FlowResult solve(const std::vector<double>& d,
                   const std::vector<double>* residual_caps = nullptr,
                   const std::vector<bool>* skip = nullptr);

  /// Total only, at full capacities with no pair skipped (dp_gap's OPT
  /// solve): bitwise solve(d).total without building the per-pair flow
  /// vectors; nullopt where solve(d) would be infeasible (never in
  /// practice: the LP is always feasible and bounded).
  std::optional<double> solve_total(const std::vector<double>& d);

  /// The compiled LP: row k is pair k's demand row, row num_pairs + l is
  /// link l's capacity row; rhs as of the last solve.
  const solver::LpProblem& problem() const { return session_.problem(); }

  /// Path k is pair k's shortest path (paths[0]), resolved once for
  /// run_demand_pinning's pinning phase.
  const PathLinks& shortest_path_links() const { return shortest_links_; }

 private:
  solver::LpSolution run(const std::vector<double>& d,
                         const std::vector<double>* residual_caps,
                         const std::vector<bool>* skip);

  int num_pairs_ = 0;
  int num_links_ = 0;
  std::vector<double> base_caps_;
  std::vector<int> first_flow_var_;  // first f[k][p] column per pair
  std::vector<int> num_paths_;       // candidate paths per pair
  PathLinks shortest_links_;
  // Declared last: its LP builder fills first_flow_var_ and num_paths_.
  solver::LpSession session_;
};

}  // namespace xplain::te
