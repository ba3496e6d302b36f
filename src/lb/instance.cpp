#include "lb/instance.h"

#include <algorithm>
#include <cassert>

namespace xplain::lb {

bool LbInstance::has_skew_dim() const {
  if (skew_hi <= skew_lo) return false;
  for (bool s : skewed)
    if (s) return true;
  return false;
}

double LbInstance::skew_of(const std::vector<double>& x) const {
  if (!has_skew_dim()) return 1.0;
  assert(static_cast<int>(x.size()) == input_dim());
  return x[num_commodities()];
}

std::vector<double> LbInstance::effective_capacities(double skew) const {
  std::vector<double> caps(topo.num_links());
  for (int l = 0; l < topo.num_links(); ++l) {
    const double base = topo.link(te::LinkId{l}).capacity;
    const bool apply = l < static_cast<int>(skewed.size()) && skewed[l];
    caps[l] = apply ? base * skew : base;
  }
  return caps;
}

te::PathLinks LbInstance::path_links() const {
  te::PathLinks links;
  for (const LbCommodity& c : commodities)
    for (const te::Path& p : c.paths) links.add(topo, p);
  return links;
}

LbInstance LbInstance::make(te::Topology topo,
                            const std::vector<std::pair<int, int>>& pairs,
                            int k_paths, double t_max) {
  LbInstance inst;
  inst.t_max = t_max;
  for (const auto& [src, dst] : pairs) {
    LbCommodity c;
    c.src = src;
    c.dst = dst;
    c.paths = te::k_shortest_paths(topo, src, dst, k_paths);
    if (c.paths.empty()) continue;
    inst.commodities.push_back(std::move(c));
  }
  inst.topo = std::move(topo);
  return inst;
}

void LbInstance::skew_top_tier(double lo, double hi) {
  double max_cap = 0.0;
  for (const auto& l : topo.links()) max_cap = std::max(max_cap, l.capacity);
  skewed.assign(topo.num_links(), false);
  for (int l = 0; l < topo.num_links(); ++l)
    if (topo.link(te::LinkId{l}).capacity >= max_cap - 1e-12) skewed[l] = true;
  skew_lo = lo;
  skew_hi = hi;
}

}  // namespace xplain::lb
