// A traffic load-balancing *instance*: topology + commodities (src, dst,
// candidate paths) whose demands are split across multipath routes.  This
// is the fourth problem domain (after te/ demand pinning and vbp/ bin
// packing): the data-plane workload of WCMP/ECMP-style load balancers.
//
// The analyzer input is the vector of per-commodity traffic rates plus one
// trailing *capacity-skew* dimension: a multiplier applied to the marked
// subset of links (e.g. the core uplinks of a fat-tree).  Sweeping the skew
// is how the subspace generator localizes "WCMP breaks when the high-tier
// capacities sag below X" — a failure axis per-commodity demands alone
// cannot express.
#pragma once

#include <string>
#include <vector>

#include "te/paths.h"
#include "te/topology.h"

namespace xplain::lb {

struct LbCommodity {
  int src = -1;
  int dst = -1;
  /// Candidate paths; paths[0] is the shortest.
  std::vector<te::Path> paths;

  std::string name() const {
    return std::to_string(src + 1) + "~>" + std::to_string(dst + 1);
  }
};

struct LbInstance {
  te::Topology topo;
  std::vector<LbCommodity> commodities;
  /// Upper bound on each commodity rate (demand dims span [0, t_max]).
  double t_max = 0.0;
  /// skewed[l]: link l's capacity is multiplied by the skew input.  Empty
  /// means no link is skewed (the skew dimension is omitted entirely).
  std::vector<bool> skewed;
  /// Range of the capacity-skew input dimension.
  double skew_lo = 1.0;
  double skew_hi = 1.0;

  int num_commodities() const { return static_cast<int>(commodities.size()); }

  /// True when the instance carries a live capacity-skew input dimension.
  bool has_skew_dim() const;

  /// Analyzer input dimensionality: one rate per commodity, plus the skew
  /// dimension when present.
  int input_dim() const { return num_commodities() + (has_skew_dim() ? 1 : 0); }

  /// The skew value encoded in input `x` (1.0 when there is no skew dim).
  double skew_of(const std::vector<double>& x) const;

  /// Per-link capacities with the skew applied to the marked links.
  std::vector<double> effective_capacities(double skew) const;

  /// Every candidate path's link ids, commodity by commodity and path by
  /// path (commodity k's paths follow those of commodities 0..k-1).
  te::PathLinks path_links() const;

  /// Builds an instance: up to `k_paths` candidate paths per commodity;
  /// commodities with no path are dropped.
  static LbInstance make(te::Topology topo,
                         const std::vector<std::pair<int, int>>& pairs,
                         int k_paths, double t_max);

  /// Marks every link whose capacity equals the topology's maximum as
  /// skewed over [skew_lo, skew_hi] — on a fat-tree that is the core
  /// uplink tier; on a uniform topology it is a global capacity scale.
  void skew_top_tier(double lo, double hi);
};

}  // namespace xplain::lb
