#include "generalize/instance_generator.h"

namespace xplain::generalize {

te::TeInstance make_dp_family_instance(const DpFamilyParams& params) {
  // Nodes 0..L on the main chain; detour 0 -> L via L extra nodes, so the
  // detour (L+1 hops) is *always* strictly longer than the chain (L hops)
  // and the chain stays the pinned demand's shortest path — the detour is
  // the optimal's escape hatch.
  const int L = params.chain_len;
  te::Topology topo(2 * L + 1);
  for (int u = 0; u < L; ++u) topo.add_bidi(u, u + 1, params.main_capacity);
  int prev = 0;
  for (int v = 0; v < L; ++v) {
    const int via = L + 1 + v;
    topo.add_bidi(prev, via, params.detour_capacity);
    prev = via;
  }
  topo.add_bidi(prev, L, params.detour_capacity);

  // Demand pairs: the pinnable end-to-end demand plus one cross demand per
  // chain hop (the paper's Fig. 1a pattern generalized).
  std::vector<std::pair<int, int>> pairs;
  pairs.emplace_back(0, L);
  for (int u = 0; u < L; ++u) pairs.emplace_back(u, u + 1);

  te::TeInstance inst =
      te::TeInstance::make(topo, pairs, /*k_paths=*/2, params.d_max);
  // Cross demands route only on their direct link (as in Fig. 1a).
  for (std::size_t k = 1; k < inst.pairs.size(); ++k)
    inst.pairs[k].paths.resize(1);
  return inst;
}

}  // namespace xplain::generalize
