// A path-flow problem *instance* (paper terminology): topology + demand
// pairs with candidate paths.  The analyzer's *input* is the vector of
// demand values, one per pair — the OuterVar in MetaOpt's encoding of
// Fig. 1b — plus, when links are marked skewed, one trailing
// *capacity-skew* dimension: a multiplier applied to the marked links
// (e.g. the core uplinks of a fat-tree).  Demand Pinning marks no link;
// the WCMP case skews the top capacity tier, so the subspace generator can
// localize "WCMP breaks when the high-tier capacities sag below X" — a
// failure axis per-pair demands alone cannot express.
//
// Both heuristics over this instance render their Type-2 heatmaps on the
// same Fig. 4a network (PathNetwork below).
#pragma once

#include <string>
#include <vector>

#include "flowgraph/network.h"
#include "te/paths.h"
#include "te/topology.h"

namespace xplain::te {

struct TePair {
  int src = -1;
  int dst = -1;
  /// Candidate paths; paths[0] is the shortest (the pinning target).
  std::vector<Path> paths;

  std::string name() const {
    return std::to_string(src + 1) + "~>" + std::to_string(dst + 1);
  }
};

struct TeInstance {
  Topology topo;
  std::vector<TePair> pairs;
  /// Upper bound on each demand value (demand dims span [0, d_max]).
  double d_max = 0.0;
  /// skewed[l]: link l's capacity is multiplied by the skew input.  Empty
  /// means no link is skewed (the skew dimension is omitted entirely).
  std::vector<bool> skewed;
  /// Range of the capacity-skew input dimension.
  double skew_lo = 1.0;
  double skew_hi = 1.0;

  int num_pairs() const { return static_cast<int>(pairs.size()); }

  /// True when the instance carries a live capacity-skew input dimension.
  bool has_skew_dim() const;

  /// Analyzer input dimensionality: one demand per pair, plus the skew
  /// dimension when present.
  int input_dim() const { return num_pairs() + (has_skew_dim() ? 1 : 0); }

  /// The skew value encoded in input `x` (1.0 when there is no skew dim).
  double skew_of(const std::vector<double>& x) const;

  /// Per-link capacities with the skew applied to the marked links.
  std::vector<double> effective_capacities(double skew) const;
  /// The same, written into `caps` (resized to the link count).
  void effective_capacities(double skew, std::vector<double>& caps) const;

  /// Every candidate path's link ids, pair by pair and path by path (pair
  /// k's paths follow those of pairs 0..k-1).
  PathLinks path_links() const;

  /// Marks every link whose capacity equals the topology's maximum as
  /// skewed over [lo, hi] — on a fat-tree that is the core uplink tier; on
  /// a uniform topology it is a global capacity scale.
  void skew_top_tier(double lo, double hi);

  /// Builds an instance: computes up to `k` candidate paths per pair and
  /// drops pairs with no path.
  static TeInstance make(Topology topo,
                         const std::vector<std::pair<int, int>>& demand_pairs,
                         int k_paths, double d_max);

  /// The paper's running example: Fig. 1a topology with the demands
  /// 1~>3, 1~>2, 2~>3 (k = 2 candidate paths each, d_max = 100).
  static TeInstance fig1a_example();

  /// All ordered pairs (u, v), u != v, as demand pairs.
  static TeInstance all_pairs(Topology topo, int k_paths, double d_max);
};

// --- DSL face (Fig. 4a). ---

/// Handles into the Fig. 4a network so rule-, oracle- and explanation-code
/// can find its pieces without string lookups.
struct PathNetwork {
  flowgraph::FlowNetwork net;
  std::vector<flowgraph::NodeId> demand_nodes;        // per pair
  std::vector<flowgraph::EdgeId> unmet_edges;         // per pair
  /// path_edges[k][p]: demand k -> path-node edge for candidate path p
  /// (p == 0 is the shortest path, DP's pinning target).
  std::vector<std::vector<flowgraph::EdgeId>> path_edges;
  /// path_link_edges[k][p]: the path-node -> link-node edges of that path.
  std::vector<std::vector<std::vector<flowgraph::EdgeId>>> path_link_edges;
  std::vector<flowgraph::EdgeId> link_edges;          // per topology link
};

/// Builds the Fig. 4a network named `name`: sources (split) per demand,
/// copy node per candidate path, split node per link with the link's
/// *base* capacity on its edge into the "met" sink, plus an "unmet" sink
/// edge per demand.  The objective is minimizing unmet demand (==
/// maximizing routed traffic).  The capacity skew only exists in the
/// evaluators and oracles, which compute flows against skewed capacities.
PathNetwork build_path_network(const TeInstance& inst,
                               const std::string& name);

/// Maps per-(pair, path) flows onto the network's edges, for the
/// explainer: `x` is the analyzer input (its first num_pairs() entries are
/// the demands).  Returns one flow value per EdgeId.
std::vector<double> path_network_flows(
    const PathNetwork& pn, const TeInstance& inst, const std::vector<double>& x,
    const std::vector<std::vector<double>>& path_flows);

}  // namespace xplain::te
