#include "lb/optimal.h"

#include <algorithm>
#include <cassert>

#include "model/model.h"

namespace xplain::lb {

LbOptimalResult solve_lb_optimal(const te::TeInstance& inst,
                                 const std::vector<double>& x) {
  assert(static_cast<int>(x.size()) == inst.input_dim());
  const int K = inst.num_pairs();
  const std::vector<double> caps =
      inst.effective_capacities(inst.skew_of(x));

  model::Model m;
  // f[k][p]: rate of commodity k on candidate path p.  The per-path upper
  // bound (demand) keeps the LP's implicit box tight for the solver.
  std::vector<std::vector<model::Var>> f(K);
  std::vector<model::LinExpr> link_load(inst.topo.num_links());
  model::LinExpr total;
  for (int k = 0; k < K; ++k) {
    const auto& paths = inst.pairs[k].paths;
    const double demand = std::clamp(x[k], 0.0, inst.d_max);
    model::LinExpr routed;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      model::Var v = m.add_continuous(0.0, demand);
      f[k].push_back(v);
      routed += v;
      total += v;
      for (te::LinkId l : paths[p].links(inst.topo)) link_load[l.v] += v;
    }
    m.add(routed <= model::LinExpr(demand));
  }
  for (int l = 0; l < inst.topo.num_links(); ++l)
    m.add(link_load[l] <= model::LinExpr(caps[l]));
  m.set_objective(solver::Sense::kMaximize, total);

  LbOptimalResult res;
  const auto s = m.solve_lp();
  if (s.status != solver::Status::kOptimal) return res;
  res.feasible = true;
  res.total = s.obj;
  res.flow.resize(K);
  for (int k = 0; k < K; ++k) {
    res.flow[k].reserve(f[k].size());
    for (model::Var v : f[k]) res.flow[k].push_back(m.value(s.x, v));
  }
  return res;
}

}  // namespace xplain::lb
