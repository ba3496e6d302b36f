// The WCMP oracle's one-shot benchmark: maximum splittable routing over
// the candidate path sets, encoded through the model layer (model::Model ->
// solver) as a pure LP — splittable routing needs no integrality.  Each
// path's rate is bounded by its commodity's demand, which keeps the LP's
// implicit box tight.  The sampling loops solve the same routing problem
// on te::MaxFlowSolver's resident LP instead (lb_gap in lb/wcmp.h).
#pragma once

#include <vector>

#include "te/demand.h"

namespace xplain::lb {

struct LbOptimalResult {
  bool feasible = false;
  double total = 0.0;
  /// flow[k][p]: optimal rate of commodity k on its candidate path p.
  std::vector<std::vector<double>> flow;
};

/// Solves the optimal splittable routing at analyzer input `x` (rates plus
/// the optional capacity-skew dimension).
LbOptimalResult solve_lb_optimal(const te::TeInstance& inst,
                                 const std::vector<double>& x);

}  // namespace xplain::lb
