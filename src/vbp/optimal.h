// Exact optimal bin packing — the benchmark OPT in the paper's VBP example.
//
// 1-D instances use a bin-completion branch-and-bound (fast to ~20 balls);
// multi-dimensional instances fall back to a MILP with symmetry breaking.
#pragma once

#include <vector>

#include "vbp/heuristics.h"
#include "vbp/instance.h"

namespace xplain::vbp {

struct OptimalResult {
  int bins = 0;
  Packing packing;
  bool proven = true;  // false when the MILP hit a limit
};

/// Minimum number of bins needed to pack everything (assumes every single
/// ball fits in an empty bin; callers clamp sizes to [0, capacity]).
OptimalResult optimal_packing(const VbpInstance& inst,
                              const std::vector<double>& sizes);

/// Branch-and-bound specialized for 1-D (dims must be 1).
OptimalResult optimal_packing_bnb_1d(const VbpInstance& inst,
                                     const std::vector<double>& sizes);

/// MILP formulation (any dimension): assignment binaries + used-bin
/// indicators, lexicographic symmetry breaking.
OptimalResult optimal_packing_milp(const VbpInstance& inst,
                                   const std::vector<double>& sizes);

/// Heuristic bins minus optimal bins, evaluated with enough bins that the
/// heuristic always completes (bins = num_balls).  This is the VBP
/// performance gap the analyzer maximizes.  Both counts come from the loops
/// behind run_heuristic and optimal_packing, run count-only on per-thread
/// scratch, so they equal those calls' bins_used and bins; a warm call
/// makes no heap allocation.  With dims > 1 only the heuristic half runs
/// on scratch: the optimum is optimal_packing_milp's.
double vbp_gap(const VbpInstance& inst, const std::vector<double>& sizes,
               VbpHeuristic h = VbpHeuristic::kFirstFit);

}  // namespace xplain::vbp
