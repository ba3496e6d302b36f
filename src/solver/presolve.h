// Bound-propagation presolve for the MILP solver.
//
// Iterates constraint-activity propagation to a fixpoint: every row's
// minimum/maximum activity implies bounds on each of its columns, and
// integer columns round those bounds inward.  On models built from big-M
// indicator chains (everything the MetaOpt-style encodings produce), fixing
// the input columns lets propagation cascade and fix most binaries before
// any LP is solved — without it, branch-and-bound on a constant objective
// degenerates into blind enumeration.
#pragma once

#include "solver/lp.h"

namespace xplain::solver {

struct PropagateResult {
  bool feasible = true;   // false: a row or an empty domain proves infeasible
  int tightened = 0;      // number of bound changes applied
  int rounds = 0;
};

/// Tightens `p`'s column bounds in place, for at most 50 rounds; a bound
/// moves only when it tightens by more than 1e-9.  Safe: only *implied*
/// bounds are added, so the feasible set (and the MILP optimum) is
/// unchanged.
PropagateResult propagate_bounds(LpProblem& p);

}  // namespace xplain::solver
