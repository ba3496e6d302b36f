// Feature extraction for the generalizer (paper §5.4): functions F(I) of
// the problem instance, built from the DSL metadata and the network-flow
// structure, over which the predicate grammar expresses trends like
// increasing(P) where P is the set of pinned shortest paths.
#pragma once

#include <map>
#include <string>

#include "te/demand_pinning.h"
#include "vbp/instance.h"

namespace xplain::generalize {

using FeatureMap = std::map<std::string, double>;

/// DP instance features:
///   pinned_sp_hops      mean shortest-path hop count over pairs (|P| in the
///                       paper's increasing(P) example)
///   pinned_sp_max_hops  max shortest-path hop count
///   pinned_sp_min_cap   min bottleneck capacity among shortest paths
///   alt_paths           mean number of alternate (non-shortest) paths
///   threshold_ratio     pinning threshold / min link capacity
///   num_pairs
FeatureMap dp_instance_features(const te::TeInstance& inst,
                                const te::DpConfig& cfg);

/// VBP instance features: num_balls, num_bins, dims, capacity.
FeatureMap vbp_instance_features(const vbp::VbpInstance& inst);

/// WCMP instance features (a skewed te::TeInstance; each pair is a
/// commodity):
///   num_commodities, num_links, num_nodes
///   paths_per_commodity   mean candidate-path count
///   path_hops             mean hop count across all candidate paths
///   shared_link_degree    mean number of candidate paths crossing a link
///                         (the contention WCMP's local splits ignore)
///   demand_cap_ratio      num_commodities * d_max / total link capacity
///   skew_span             skew_hi - skew_lo (0: no skew dimension)
///   skewed_links          number of links the skew dimension squeezes
FeatureMap lb_instance_features(const te::TeInstance& inst);

}  // namespace xplain::generalize
