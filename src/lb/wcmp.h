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
// the optimal splittable routing (lb::solve_lb_optimal) upper-bounds it and
// gap = OPT - WCMP is >= 0 everywhere — the shape the XPlain analyzers
// need.
#pragma once

#include <vector>

#include "lb/instance.h"

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
/// optional trailing capacity-skew dimension — see LbInstance).
WcmpResult wcmp_split(const LbInstance& inst, const std::vector<double>& x);

/// wcmp_split(inst, x).total, bitwise (one implementation serves both),
/// over `links` = inst.path_links() resolved once by the caller: the gap
/// hot loop's form, which translates no node sequence and builds no
/// per-path flows or link loads.
double wcmp_total(const LbInstance& inst, const te::PathLinks& links,
                  const std::vector<double>& x);

/// Optimal splittable total minus WCMP total (>= 0 up to LP tolerance).
double lb_gap(const LbInstance& inst, const std::vector<double>& x);

}  // namespace xplain::lb
