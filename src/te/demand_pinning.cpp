#include "te/demand_pinning.h"

#include <cassert>
#include <optional>

namespace xplain::te {

DpResult run_demand_pinning(const TeInstance& inst, const DpConfig& cfg,
                            const std::vector<double>& d, MaxFlowSolver* mf) {
  assert(static_cast<int>(d.size()) == inst.num_pairs());
  DpResult res;
  res.pinned.assign(inst.num_pairs(), false);
  res.flow.assign(inst.num_pairs(), {});

  // Phase 1: pin everything at or below the threshold to its shortest path.
  std::vector<double> residual(inst.topo.num_links());
  for (int l = 0; l < inst.topo.num_links(); ++l)
    residual[l] = inst.topo.link(LinkId{l}).capacity;
  // Shortest-path link ids: the sampling loops' solver resolved them once;
  // without one, resolve them here.
  PathLinks resolved;
  if (!mf)
    for (const TePair& pair : inst.pairs)
      resolved.add(inst.topo, pair.paths[0]);
  const PathLinks& shortest = mf ? mf->shortest_path_links() : resolved;
  std::vector<bool> skip(inst.num_pairs(), false);
  for (int k = 0; k < inst.num_pairs(); ++k) {
    res.flow[k].assign(inst.pairs[k].paths.size(), 0.0);
    if (d[k] > cfg.threshold) continue;
    res.pinned[k] = true;
    skip[k] = true;
    res.flow[k][0] = d[k];
    for (int i = shortest.start[k]; i < shortest.start[k + 1]; ++i) {
      const int l = shortest.ids[i];
      residual[l] -= d[k];
      if (residual[l] < -1e-9) return res;  // pinning violates capacity
    }
    res.total += d[k];
  }

  // Phase 2: optimal residual max-flow for the unpinned demands.
  FlowResult rest = mf ? mf->solve(d, &residual, &skip)
                       : solve_max_flow(inst, d, &residual, &skip);
  if (!rest.feasible) return res;
  res.feasible = true;
  res.total += rest.total;
  for (int k = 0; k < inst.num_pairs(); ++k) {
    if (skip[k]) continue;
    res.flow[k] = rest.flow[k];
  }
  return res;
}

double dp_gap(const TeInstance& inst, const DpConfig& cfg,
              const std::vector<double>& d, MaxFlowSolver* mf) {
  DpResult h = run_demand_pinning(inst, cfg, d, mf);
  if (!h.feasible) return 0.0;
  // OPT: only its total is read.
  std::optional<double> opt_total;
  if (mf) {
    opt_total = mf->solve_total(d);
  } else if (const FlowResult opt = solve_max_flow(inst, d); opt.feasible) {
    opt_total = opt.total;
  }
  if (!opt_total) return 0.0;
  return *opt_total - h.total;
}

DpNetwork build_dp_network(const TeInstance& inst) {
  using namespace flowgraph;
  DpNetwork dp;
  FlowNetwork& net = dp.net;
  net = FlowNetwork("demand_pinning");

  NodeId met = net.add_node("met_demand", NodeKind::kSink);
  NodeId unmet = net.add_node("unmet_demand", NodeKind::kSink);

  // Link nodes: split with the link capacity on the edge into `met`.
  std::vector<NodeId> link_nodes(inst.topo.num_links());
  dp.link_edges.resize(inst.topo.num_links());
  for (int l = 0; l < inst.topo.num_links(); ++l) {
    const std::string ln = inst.topo.link_name(LinkId{l});
    link_nodes[l] = net.add_node("link_" + ln, NodeKind::kSplit);
    net.set_node_meta(link_nodes[l], "kind", "link");
    EdgeId e = net.add_edge(link_nodes[l], met, "cap_" + ln);
    net.set_capacity(e, inst.topo.link(LinkId{l}).capacity);
    net.set_edge_meta(e, "kind", "link_capacity");
    dp.link_edges[l] = e;
  }

  // Path nodes (copy behavior: the path's flow appears on every link).
  // One per (pair, candidate path).
  dp.path_edges.resize(inst.num_pairs());
  dp.path_link_edges.resize(inst.num_pairs());
  dp.demand_nodes.resize(inst.num_pairs());
  dp.unmet_edges.resize(inst.num_pairs());
  for (int k = 0; k < inst.num_pairs(); ++k) {
    const TePair& pair = inst.pairs[k];
    NodeId src = net.add_node("demand_" + pair.name(), NodeKind::kSource);
    net.set_injection_range(src, 0.0, inst.d_max, /*is_input=*/true);
    net.set_node_meta(src, "kind", "demand");
    net.set_node_meta(src, "pair", pair.name());
    dp.demand_nodes[k] = src;

    for (std::size_t p = 0; p < pair.paths.size(); ++p) {
      const Path& path = pair.paths[p];
      NodeId pn = net.add_node("path_" + path.name(), NodeKind::kCopy);
      net.set_node_meta(pn, "kind", "path");
      net.set_node_meta(pn, "hops", std::to_string(path.hops()));
      EdgeId de = net.add_edge(src, pn, pair.name() + " via " + path.name());
      net.set_edge_meta(de, "kind", "demand_path");
      net.set_edge_meta(de, "pair", pair.name());
      net.set_edge_meta(de, "path", path.name());
      net.set_edge_meta(de, "shortest", p == 0 ? "yes" : "no");
      dp.path_edges[k].push_back(de);
      std::vector<EdgeId> pls;
      for (LinkId l : path.links(inst.topo)) {
        EdgeId pe = net.add_edge(pn, link_nodes[l.v],
                                 path.name() + " on " +
                                     inst.topo.link_name(l));
        net.set_edge_meta(pe, "kind", "path_link");
        pls.push_back(pe);
      }
      dp.path_link_edges[k].push_back(std::move(pls));
    }
    EdgeId ue = net.add_edge(src, unmet, pair.name() + " unmet");
    net.set_edge_meta(ue, "kind", "unmet");
    dp.unmet_edges[k] = ue;
  }

  net.set_objective(unmet, /*maximize=*/false);
  return dp;
}

std::vector<model::Var> add_pinning_rule(flowgraph::CompiledNetwork& c,
                                         const DpNetwork& dp,
                                         const DpConfig& cfg,
                                         const model::HelperConfig& hcfg) {
  std::vector<model::Var> pinned;
  const int num_pairs = static_cast<int>(dp.demand_nodes.size());
  for (int k = 0; k < num_pairs; ++k) {
    const model::Var d = c.injection[dp.demand_nodes[k].v];
    const model::Var f_short = c.flow(dp.path_edges[k][0]);
    // Fig. 1b: ForceToZeroIfLeq(d_k - f_shortest, d_k, T): pinned demands
    // are fully routed on the shortest path...
    model::Var z = model::force_to_zero_if_leq(
        c.model, model::LinExpr(d) - model::LinExpr(f_short), model::LinExpr(d),
        cfg.threshold, hcfg);
    // ...and on nothing else (no alternate paths, no unmet spill).
    for (std::size_t p = 1; p < dp.path_edges[k].size(); ++p) {
      c.model.add(model::LinExpr(c.flow(dp.path_edges[k][p])) <=
                  hcfg.big_m * (model::LinExpr(1.0) - model::LinExpr(z)));
    }
    pinned.push_back(z);
  }
  return pinned;
}

void fix_demands(flowgraph::CompiledNetwork& c, const DpNetwork& dp,
                 const std::vector<double>& d) {
  assert(d.size() == dp.demand_nodes.size());
  for (std::size_t k = 0; k < d.size(); ++k) {
    const model::Var inj = c.injection[dp.demand_nodes[k].v];
    c.model.lp().set_bounds(inj.index, d[k], d[k]);
  }
}

std::vector<double> dp_network_flows(
    const DpNetwork& dp, const TeInstance& inst, const std::vector<double>& d,
    const std::vector<std::vector<double>>& path_flows) {
  std::vector<double> flows(dp.net.num_edges(), 0.0);
  std::vector<double> link_total(inst.topo.num_links(), 0.0);
  for (int k = 0; k < inst.num_pairs(); ++k) {
    double routed = 0.0;
    for (std::size_t p = 0; p < dp.path_edges[k].size(); ++p) {
      const double f = p < path_flows[k].size() ? path_flows[k][p] : 0.0;
      flows[dp.path_edges[k][p].v] = f;
      routed += f;
      for (flowgraph::EdgeId pl : dp.path_link_edges[k][p])
        flows[pl.v] = f;  // copy node: full path flow on every link edge
      const auto links = inst.pairs[k].paths[p].links(inst.topo);
      for (LinkId l : links) link_total[l.v] += f;
    }
    flows[dp.unmet_edges[k].v] = std::max(0.0, d[k] - routed);
  }
  for (int l = 0; l < inst.topo.num_links(); ++l)
    flows[dp.link_edges[l].v] = link_total[l];
  return flows;
}

}  // namespace xplain::te
