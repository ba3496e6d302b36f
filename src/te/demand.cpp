#include "te/demand.h"

#include <algorithm>
#include <cassert>

namespace xplain::te {

bool TeInstance::has_skew_dim() const {
  if (skew_hi <= skew_lo) return false;
  for (bool s : skewed)
    if (s) return true;
  return false;
}

double TeInstance::skew_of(const std::vector<double>& x) const {
  if (!has_skew_dim()) return 1.0;
  assert(static_cast<int>(x.size()) == input_dim());
  return x[num_pairs()];
}

std::vector<double> TeInstance::effective_capacities(double skew) const {
  std::vector<double> caps;
  effective_capacities(skew, caps);
  return caps;
}

void TeInstance::effective_capacities(double skew,
                                      std::vector<double>& caps) const {
  caps.resize(topo.num_links());
  for (int l = 0; l < topo.num_links(); ++l) {
    const double base = topo.link(LinkId{l}).capacity;
    const bool apply = l < static_cast<int>(skewed.size()) && skewed[l];
    caps[l] = apply ? base * skew : base;
  }
}

PathLinks TeInstance::path_links() const {
  PathLinks links;
  for (const TePair& pair : pairs)
    for (const Path& p : pair.paths) links.add(topo, p);
  return links;
}

void TeInstance::skew_top_tier(double lo, double hi) {
  double max_cap = 0.0;
  for (const auto& l : topo.links()) max_cap = std::max(max_cap, l.capacity);
  skewed.assign(topo.num_links(), false);
  for (int l = 0; l < topo.num_links(); ++l)
    if (topo.link(LinkId{l}).capacity >= max_cap - 1e-12) skewed[l] = true;
  skew_lo = lo;
  skew_hi = hi;
}

TeInstance TeInstance::make(
    Topology topo, const std::vector<std::pair<int, int>>& demand_pairs,
    int k_paths, double d_max) {
  TeInstance inst;
  inst.topo = std::move(topo);
  inst.d_max = d_max;
  for (const auto& [s, t] : demand_pairs) {
    TePair p;
    p.src = s;
    p.dst = t;
    p.paths = k_shortest_paths(inst.topo, s, t, k_paths);
    if (!p.paths.empty()) inst.pairs.push_back(std::move(p));
  }
  return inst;
}

TeInstance TeInstance::fig1a_example() {
  TeInstance inst = make(Topology::fig1a(), {{0, 2}, {0, 1}, {1, 2}},
                         /*k_paths=*/2, /*d_max=*/100.0);
  // The paper's example gives only the 1~>3 demand an alternate path; 1~>2
  // and 2~>3 route solely on their direct links (Fig. 1a's table).
  inst.pairs[1].paths.resize(1);
  inst.pairs[2].paths.resize(1);
  return inst;
}

TeInstance TeInstance::all_pairs(Topology topo, int k_paths, double d_max) {
  std::vector<std::pair<int, int>> pairs;
  for (int u = 0; u < topo.num_nodes(); ++u)
    for (int v = 0; v < topo.num_nodes(); ++v)
      if (u != v) pairs.emplace_back(u, v);
  return make(std::move(topo), pairs, k_paths, d_max);
}

PathNetwork build_path_network(const TeInstance& inst,
                               const std::string& name) {
  using namespace flowgraph;
  PathNetwork pn;
  FlowNetwork& net = pn.net;
  net = FlowNetwork(name);

  NodeId met = net.add_node("met_demand", NodeKind::kSink);
  NodeId unmet = net.add_node("unmet_demand", NodeKind::kSink);

  // Link nodes: split with the link capacity on the edge into `met`.
  std::vector<NodeId> link_nodes(inst.topo.num_links());
  pn.link_edges.resize(inst.topo.num_links());
  for (int l = 0; l < inst.topo.num_links(); ++l) {
    const std::string ln = inst.topo.link_name(LinkId{l});
    link_nodes[l] = net.add_node("link_" + ln, NodeKind::kSplit);
    net.set_node_meta(link_nodes[l], "kind", "link");
    EdgeId e = net.add_edge(link_nodes[l], met, "cap_" + ln);
    net.set_capacity(e, inst.topo.link(LinkId{l}).capacity);
    net.set_edge_meta(e, "kind", "link_capacity");
    pn.link_edges[l] = e;
  }

  // Path nodes (copy behavior: the path's flow appears on every link).
  // One per (pair, candidate path).
  pn.path_edges.resize(inst.num_pairs());
  pn.path_link_edges.resize(inst.num_pairs());
  pn.demand_nodes.resize(inst.num_pairs());
  pn.unmet_edges.resize(inst.num_pairs());
  for (int k = 0; k < inst.num_pairs(); ++k) {
    const TePair& pair = inst.pairs[k];
    NodeId src = net.add_node("demand_" + pair.name(), NodeKind::kSource);
    net.set_injection_range(src, 0.0, inst.d_max, /*is_input=*/true);
    net.set_node_meta(src, "kind", "demand");
    net.set_node_meta(src, "pair", pair.name());
    pn.demand_nodes[k] = src;

    for (std::size_t p = 0; p < pair.paths.size(); ++p) {
      const Path& path = pair.paths[p];
      NodeId node = net.add_node("path_" + path.name(), NodeKind::kCopy);
      net.set_node_meta(node, "kind", "path");
      net.set_node_meta(node, "hops", std::to_string(path.hops()));
      EdgeId de = net.add_edge(src, node, pair.name() + " via " + path.name());
      net.set_edge_meta(de, "kind", "demand_path");
      net.set_edge_meta(de, "pair", pair.name());
      net.set_edge_meta(de, "path", path.name());
      net.set_edge_meta(de, "shortest", p == 0 ? "yes" : "no");
      pn.path_edges[k].push_back(de);
      std::vector<EdgeId> pls;
      for (LinkId l : path.links(inst.topo)) {
        EdgeId pe = net.add_edge(node, link_nodes[l.v],
                                 path.name() + " on " +
                                     inst.topo.link_name(l));
        net.set_edge_meta(pe, "kind", "path_link");
        pls.push_back(pe);
      }
      pn.path_link_edges[k].push_back(std::move(pls));
    }
    EdgeId ue = net.add_edge(src, unmet, pair.name() + " unmet");
    net.set_edge_meta(ue, "kind", "unmet");
    pn.unmet_edges[k] = ue;
  }

  net.set_objective(unmet, /*maximize=*/false);
  return pn;
}

std::vector<double> path_network_flows(
    const PathNetwork& pn, const TeInstance& inst, const std::vector<double>& x,
    const std::vector<std::vector<double>>& path_flows) {
  std::vector<double> flows(pn.net.num_edges(), 0.0);
  std::vector<double> link_total(inst.topo.num_links(), 0.0);
  for (int k = 0; k < inst.num_pairs(); ++k) {
    double routed = 0.0;
    for (std::size_t p = 0; p < pn.path_edges[k].size(); ++p) {
      const double f = p < path_flows[k].size() ? path_flows[k][p] : 0.0;
      flows[pn.path_edges[k][p].v] = f;
      routed += f;
      for (flowgraph::EdgeId pl : pn.path_link_edges[k][p])
        flows[pl.v] = f;  // copy node: full path flow on every link edge
      for (LinkId l : inst.pairs[k].paths[p].links(inst.topo))
        link_total[l.v] += f;
    }
    flows[pn.unmet_edges[k].v] = std::max(0.0, x[k] - routed);
  }
  for (int l = 0; l < inst.topo.num_links(); ++l)
    flows[pn.link_edges[l].v] = link_total[l];
  return flows;
}

}  // namespace xplain::te
