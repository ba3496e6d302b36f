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
  // Every candidate path's link ids: the sampling loops' solver resolved
  // them once; without one, resolve them here.
  const PathLinks resolved = mf ? PathLinks{} : inst.path_links();
  const PathLinks& links = mf ? mf->path_links() : resolved;
  std::vector<bool> skip(inst.num_pairs(), false);
  int first = 0;  // pair k's first (shortest) path in `links`
  for (int k = 0; k < inst.num_pairs(); ++k) {
    const int shortest = first;
    first += static_cast<int>(inst.pairs[k].paths.size());
    res.flow[k].assign(inst.pairs[k].paths.size(), 0.0);
    if (d[k] > cfg.threshold) continue;
    res.pinned[k] = true;
    skip[k] = true;
    res.flow[k][0] = d[k];
    for (int i = links.start[shortest]; i < links.start[shortest + 1]; ++i) {
      const int l = links.ids[i];
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

std::vector<model::Var> add_pinning_rule(flowgraph::CompiledNetwork& c,
                                         const PathNetwork& pn,
                                         const DpConfig& cfg,
                                         const model::HelperConfig& hcfg) {
  std::vector<model::Var> pinned;
  const int num_pairs = static_cast<int>(pn.demand_nodes.size());
  for (int k = 0; k < num_pairs; ++k) {
    const model::Var d = c.injection[pn.demand_nodes[k].v];
    const model::Var f_short = c.flow(pn.path_edges[k][0]);
    // Fig. 1b: ForceToZeroIfLeq(d_k - f_shortest, d_k, T): pinned demands
    // are fully routed on the shortest path...
    model::Var z = model::force_to_zero_if_leq(
        c.model, model::LinExpr(d) - model::LinExpr(f_short), model::LinExpr(d),
        cfg.threshold, hcfg);
    // ...and on nothing else (no alternate paths, no unmet spill).
    for (std::size_t p = 1; p < pn.path_edges[k].size(); ++p) {
      c.model.add(model::LinExpr(c.flow(pn.path_edges[k][p])) <=
                  hcfg.big_m * (model::LinExpr(1.0) - model::LinExpr(z)));
    }
    pinned.push_back(z);
  }
  return pinned;
}

void fix_demands(flowgraph::CompiledNetwork& c, const PathNetwork& pn,
                 const std::vector<double>& d) {
  assert(d.size() == pn.demand_nodes.size());
  for (std::size_t k = 0; k < d.size(); ++k) {
    const model::Var inj = c.injection[pn.demand_nodes[k].v];
    c.model.lp().set_bounds(inj.index, d[k], d[k]);
  }
}

}  // namespace xplain::te
