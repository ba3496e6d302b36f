// WCMP-style local-greedy weighted traffic splitting (the heuristic under
// study in the load-balancing case).
//
// Real WCMP switches program per-destination weights locally: each ingress
// splits its traffic across candidate paths in proportion to how much
// headroom it *currently sees*, with no coordination across ingresses.  We
// model exactly that flaw: commodities are processed in a fixed order, each
// splits its rate proportionally to the residual bottleneck capacity of its
// candidate paths, each path's share is clamped to what actually fits, and
// whatever remains is dropped.  The routing is always capacity-feasible, so
// the optimal splittable routing upper-bounds it and gap = OPT - WCMP is
// >= 0 everywhere — the shape the XPlain analyzers need.
//
// The instance is te's path-flow instance (te::TeInstance), the same one
// Demand Pinning runs on, with its top capacity tier marked skewed: the
// analyzer input is one rate per commodity (pair) plus the trailing
// capacity-skew dimension.
#pragma once

#include <vector>

#include "te/demand.h"
#include "te/maxflow.h"

namespace xplain::lb {

struct WcmpResult {
  double total = 0.0;
  /// flow[k][p]: rate commodity k sends on its candidate path p.
  std::vector<std::vector<double>> flow;
  /// Aggregate load per topology link.
  std::vector<double> link_load;
  /// Rate dropped per commodity (demand that found no residual capacity).
  std::vector<double> unmet;
};

/// Runs the WCMP split on analyzer input `x` (per-commodity rates plus the
/// optional trailing capacity-skew dimension — see te::TeInstance).
WcmpResult wcmp_split(const te::TeInstance& inst,
                      const std::vector<double>& x);

/// wcmp_split(inst, x).total, bitwise (one implementation serves both),
/// over `links` = inst.path_links() resolved once by the caller: the gap
/// hot loop's form, which translates no node sequence, builds no per-path
/// flows or link loads, and reuses per-thread buffers for the residual
/// capacities and path weights.
double wcmp_total(const te::TeInstance& inst, const te::PathLinks& links,
                  const std::vector<double>& x);

/// Optimal splittable total minus WCMP total (>= 0 up to LP tolerance).
/// `mf`, when non-null, is a prebuilt te::MaxFlowSolver for `inst`: the
/// optimal side is its solve_total(x) and the WCMP side reads its resolved
/// path links (the sampling hot loops keep one per thread,
/// te::thread_max_flow_solver).  Without one, the optimal side is the
/// one-shot solve_lb_optimal (lb/optimal.h).
double lb_gap(const te::TeInstance& inst, const std::vector<double>& x,
              te::MaxFlowSolver* mf = nullptr);

}  // namespace xplain::lb
