#include "lb/wcmp.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "lb/optimal.h"

namespace xplain::lb {

namespace {

double bottleneck(const te::PathLinks& links, int path,
                  const std::vector<double>& residual) {
  double b = 1e300;
  for (int i = links.start[path]; i < links.start[path + 1]; ++i)
    b = std::min(b, residual[links.ids[i]]);
  return std::max(0.0, b);
}

// The split itself, over `links` (inst.path_links()): consumes `residual`
// (the effective capacities on entry) and returns the routed total; fills
// res->flow / res->unmet when `res` is non-null.
double split(const te::TeInstance& inst, const te::PathLinks& links,
             const std::vector<double>& x, std::vector<double>& residual,
             WcmpResult* res) {
  double total = 0.0;
  std::vector<double> weight;
  int first = 0;  // commodity k's first path in `links`
  for (int k = 0; k < inst.num_pairs(); ++k) {
    const int npaths = static_cast<int>(inst.pairs[k].paths.size());
    const int path0 = first;
    first += npaths;
    if (res) res->flow[k].assign(npaths, 0.0);
    const double demand = std::max(0.0, x[k]);
    if (demand <= 0.0) continue;

    // Local view: weight each candidate path by the residual headroom of
    // its bottleneck link, as left behind by the commodities before us.
    weight.assign(npaths, 0.0);
    double total_weight = 0.0;
    for (int p = 0; p < npaths; ++p) {
      weight[p] = bottleneck(links, path0 + p, residual);
      total_weight += weight[p];
    }
    if (total_weight <= 1e-12) {
      if (res) res->unmet[k] = demand;
      continue;
    }

    // One proportional pass, no recourse: the share aimed at each path is
    // clamped to what still fits at send time.  Paths sharing a link eat
    // each other's headroom — the local decision the optimal avoids.
    double routed = 0.0;
    for (int p = 0; p < npaths; ++p) {
      const double desired = demand * weight[p] / total_weight;
      const double fits = bottleneck(links, path0 + p, residual);
      const double f = std::min(desired, fits);
      if (f <= 0.0) continue;
      if (res) res->flow[k][p] = f;
      routed += f;
      for (int i = links.start[path0 + p]; i < links.start[path0 + p + 1];
           ++i)
        residual[links.ids[i]] -= f;
    }
    if (res) res->unmet[k] = demand - routed;
    total += routed;
  }
  return total;
}

}  // namespace

WcmpResult wcmp_split(const te::TeInstance& inst,
                      const std::vector<double>& x) {
  assert(static_cast<int>(x.size()) == inst.input_dim());
  const int K = inst.num_pairs();
  WcmpResult res;
  res.flow.resize(K);
  res.unmet.assign(K, 0.0);
  std::vector<double> residual = inst.effective_capacities(inst.skew_of(x));
  res.total = split(inst, inst.path_links(), x, residual, &res);
  res.link_load = inst.effective_capacities(inst.skew_of(x));
  for (std::size_t l = 0; l < res.link_load.size(); ++l)
    res.link_load[l] -= residual[l];
  return res;
}

double wcmp_total(const te::TeInstance& inst, const te::PathLinks& links,
                  const std::vector<double>& x) {
  assert(static_cast<int>(x.size()) == inst.input_dim());
  std::vector<double> residual = inst.effective_capacities(inst.skew_of(x));
  return split(inst, links, x, residual, nullptr);
}

double lb_gap(const te::TeInstance& inst, const std::vector<double>& x,
              te::MaxFlowSolver* mf) {
  if (mf) {
    const std::optional<double> opt_total = mf->solve_total(x);
    if (!opt_total) return 0.0;
    return std::max(0.0, *opt_total - wcmp_total(inst, mf->path_links(), x));
  }
  const WcmpResult heur = wcmp_split(inst, x);
  const LbOptimalResult opt = solve_lb_optimal(inst, x);
  if (!opt.feasible) return 0.0;
  return std::max(0.0, opt.total - heur.total);
}

}  // namespace xplain::lb
