// Branch-and-bound MILP solver over the simplex LP relaxation.
//
// Best-bound node selection with a depth-first "plunge" to find incumbents
// early, most-fractional branching, and a rounding primal heuristic.  This
// is the component that lets the MetaOpt-style analyzers solve their
// bi-level rewrites without an external MILP solver.
//
// MilpOptions carries only what callers vary (node LP options and the two
// budgets); the integrality tolerance (1e-7) and the absolute pruning gap
// (1e-9) are constants in milp.cpp.
#pragma once

#include "solver/lp.h"
#include "solver/simplex.h"

namespace xplain::solver {

struct MilpOptions {
  SimplexOptions lp;
  long max_nodes = 200'000;
  /// Wall-clock budget; kLimit with the best incumbent when exceeded.
  double time_limit_s = 120.0;
};

struct MilpResult {
  Status status = Status::kError;
  double obj = 0.0;            // incumbent objective (valid unless kInfeasible)
  std::vector<double> x;       // incumbent point
  double best_bound = 0.0;     // proven bound on the optimum
  long nodes = 0;
  long lp_solves = 0;          // node relaxations actually solved
  long lp_iterations = 0;      // simplex pivots across all node LPs
};

MilpResult solve_milp(const LpProblem& p, const MilpOptions& opts = {});

}  // namespace xplain::solver
