// Instance generator (paper §5.4 / Fig. 3): builds problem instances from
// the problem family description so the generalizer can find trends across
// instances rather than within one.  Engine grids sweep the family through
// the "demand_pinning_chain" case (ScenarioSpec::size = chain length).
//
// The DP family is a "chain with detour" generalization of Fig. 1a: a main
// chain of `chain_len` hops carrying the pinnable end-to-end demand (its
// shortest path) plus per-hop cross demands, and a lower-capacity detour
// the optimal can reroute the pinned demand onto.  Sweeping chain_len and
// capacities exercises exactly the Type-3 trends §3 predicts (longer pinned
// paths and lower capacities hurt more).
#pragma once

#include "te/demand_pinning.h"

namespace xplain::generalize {

struct DpFamilyParams {
  int chain_len = 2;          // hops on the pinned demand's shortest path
  double main_capacity = 100;
  double detour_capacity = 50;
  double threshold = 50;
  double d_max = 100;
};

/// Builds the chain-with-detour TE instance for the given parameters.
te::TeInstance make_dp_family_instance(const DpFamilyParams& params);

}  // namespace xplain::generalize
