// Optimal multi-commodity path-based max-flow (the OPT benchmark in the
// paper's DP example, and the optimal splittable routing WCMP is measured
// against): maximize total routed traffic subject to per-demand caps and
// link capacities.
#pragma once

#include <cstdint>
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

/// Reusable max-flow LP for one instance, resident in a pinned
/// solver::LpSession: the column/row structure is compiled ONCE, over every
/// pair's columns, and each solve only moves row right-hand sides (demands,
/// capacities; a skipped pair is a demand rhs of 0).  It is the sampling
/// loops' benchmark LP of both path-flow cases: Demand Pinning's residual
/// and OPT solves, and the WCMP gap's optimal splittable routing.
///
/// The session pins one fixed *reference basis* (from a cold solve at the
/// center of the input box during construction: demands at d_max / 2,
/// capacities at the skew range's midpoint), installed once.  Every solve
/// restores that same pinned state — never the previous sample's basis —
/// and repairs from there, so each solve is a pure function of its
/// arguments and bitwise equal to a one-shot warm solve_lp from the
/// reference basis.  That is what keeps the parallel sampling loops bitwise
/// deterministic for any worker count even though each worker thread owns
/// its own solver (thread_max_flow_solver below).
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

  /// Total only, at analyzer input `x` (demands, plus the skew when the
  /// instance has a skew dimension), with no pair skipped: demands clamped
  /// to [0, d_max], capacities inst.effective_capacities(inst.skew_of(x)).
  /// Without skew and with demands inside [0, d_max] it is bitwise
  /// solve(x).total, without building the per-pair flow vectors; nullopt
  /// where the solve is not optimal (never in practice: the LP is always
  /// feasible and bounded).
  std::optional<double> solve_total(const std::vector<double>& x);

  /// The compiled LP: row k is pair k's demand row, row num_pairs + l is
  /// link l's capacity row; rhs as of the last solve, or the input-box
  /// center before the first.
  const solver::LpProblem& problem() const { return session_.problem(); }

  /// The instance's path_links() — every candidate path, pair by pair —
  /// resolved once for the heuristics' hot loops (DP's pinning phase reads
  /// each pair's first path, WCMP's split all of them).
  const PathLinks& path_links() const { return path_links_; }

 private:
  solver::LpSolution run(const std::vector<double>& d,
                         const std::vector<double>* residual_caps,
                         const std::vector<bool>* skip);

  int num_pairs_ = 0;
  int num_links_ = 0;
  double d_max_ = 0.0;
  bool has_skew_ = false;
  std::vector<double> base_caps_;
  std::vector<bool> skewed_;         // per link
  std::vector<int> first_flow_var_;  // first f[k][p] column per pair
  std::vector<int> num_paths_;       // candidate paths per pair
  PathLinks path_links_;
  // Declared last: its LP builder fills first_flow_var_ and num_paths_.
  solver::LpSession session_;
};

/// The calling thread's MaxFlowSolver for `inst`, rebuilt whenever `key`
/// differs from the key of the previous call on this thread.  The sampling
/// hot loops pass GapEvaluator::id(), which no other live evaluator shares
/// (so a recycled evaluator allocation can never alias a dead one's
/// solver); one slot per thread is enough because sampling stages drive
/// one evaluator per thread at a time.
MaxFlowSolver& thread_max_flow_solver(std::uint64_t key,
                                      const TeInstance& inst);

}  // namespace xplain::te
