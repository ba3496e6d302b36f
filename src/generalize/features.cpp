#include "generalize/features.h"

#include <algorithm>
#include <limits>

namespace xplain::generalize {

FeatureMap dp_instance_features(const te::TeInstance& inst,
                                const te::DpConfig& cfg) {
  FeatureMap f;
  double hops_sum = 0.0, hops_max = 0.0;
  double min_cap = std::numeric_limits<double>::infinity();
  double alt_sum = 0.0;
  for (const auto& pair : inst.pairs) {
    const auto& sp = pair.paths[0];
    hops_sum += sp.hops();
    hops_max = std::max<double>(hops_max, sp.hops());
    min_cap = std::min(min_cap, te::bottleneck_capacity(inst.topo, sp));
    alt_sum += static_cast<double>(pair.paths.size()) - 1.0;
  }
  const double n = std::max<std::size_t>(inst.pairs.size(), 1);
  f["pinned_sp_hops"] = hops_sum / n;
  f["pinned_sp_max_hops"] = hops_max;
  f["pinned_sp_min_cap"] = std::isfinite(min_cap) ? min_cap : 0.0;
  f["alt_paths"] = alt_sum / n;
  double global_min_cap = std::numeric_limits<double>::infinity();
  for (const auto& l : inst.topo.links())
    global_min_cap = std::min(global_min_cap, l.capacity);
  f["threshold_ratio"] =
      global_min_cap > 0 ? cfg.threshold / global_min_cap : 0.0;
  f["num_pairs"] = static_cast<double>(inst.num_pairs());
  return f;
}

FeatureMap vbp_instance_features(const vbp::VbpInstance& inst) {
  FeatureMap f;
  f["num_balls"] = inst.num_balls;
  f["num_bins"] = inst.num_bins;
  f["dims"] = inst.dims;
  f["capacity"] = inst.capacity;
  return f;
}

FeatureMap lb_instance_features(const te::TeInstance& inst) {
  FeatureMap f;
  double paths_sum = 0.0, hops_sum = 0.0, path_count = 0.0;
  std::vector<double> link_degree(inst.topo.num_links(), 0.0);
  for (const auto& pair : inst.pairs) {
    paths_sum += static_cast<double>(pair.paths.size());
    for (const auto& p : pair.paths) {
      hops_sum += p.hops();
      path_count += 1.0;
      for (te::LinkId l : p.links(inst.topo)) link_degree[l.v] += 1.0;
    }
  }
  double degree_sum = 0.0, cap_total = 0.0;
  for (double d : link_degree) degree_sum += d;
  for (const auto& l : inst.topo.links()) cap_total += l.capacity;
  const double k = std::max(inst.num_pairs(), 1);
  const double links = std::max(inst.topo.num_links(), 1);
  f["num_commodities"] = static_cast<double>(inst.num_pairs());
  f["num_links"] = static_cast<double>(inst.topo.num_links());
  f["num_nodes"] = static_cast<double>(inst.topo.num_nodes());
  f["paths_per_commodity"] = paths_sum / k;
  f["path_hops"] = path_count > 0 ? hops_sum / path_count : 0.0;
  f["shared_link_degree"] = degree_sum / links;
  f["demand_cap_ratio"] =
      cap_total > 0 ? k * inst.d_max / cap_total : 0.0;
  f["skew_span"] = inst.has_skew_dim() ? inst.skew_hi - inst.skew_lo : 0.0;
  double skewed_links = 0.0;
  for (bool s : inst.skewed) skewed_links += s ? 1.0 : 0.0;
  f["skewed_links"] = skewed_links;
  return f;
}

}  // namespace xplain::generalize
