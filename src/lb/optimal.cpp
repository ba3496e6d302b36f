#include "lb/optimal.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "lb/wcmp.h"
#include "model/model.h"
#include "solver/simplex.h"

namespace xplain::lb {

LbOptimalResult solve_lb_optimal(const LbInstance& inst,
                                 const std::vector<double>& x,
                                 const LbOptimalOptions& opts) {
  assert(static_cast<int>(x.size()) == inst.input_dim());
  const int K = inst.num_commodities();
  const std::vector<double> caps =
      inst.effective_capacities(inst.skew_of(x));

  model::Model m;
  // f[k][p]: rate of commodity k on candidate path p.  The per-path upper
  // bound (demand) keeps the LP's implicit box tight for the solver.
  std::vector<std::vector<model::Var>> f(K);
  std::vector<model::LinExpr> link_load(inst.topo.num_links());
  model::LinExpr total;
  for (int k = 0; k < K; ++k) {
    const auto& paths = inst.commodities[k].paths;
    const double demand = std::clamp(x[k], 0.0, inst.t_max);
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

  // Hardware-table variant: commodity k may activate at most `max_paths`
  // of its candidates.  Binary y gates each path's flow (big-M = demand),
  // making the encoding an exact MILP.
  const int max_paths = opts.max_paths_per_commodity;
  if (max_paths > 0) {
    for (int k = 0; k < K; ++k) {
      if (static_cast<int>(f[k].size()) <= max_paths) continue;
      const double demand = std::clamp(x[k], 0.0, inst.t_max);
      model::LinExpr active;
      for (model::Var v : f[k]) {
        model::Var y = m.add_binary();
        active += y;
        m.add(model::LinExpr(v) <= demand * model::LinExpr(y));
      }
      m.add(active <= model::LinExpr(static_cast<double>(max_paths)));
    }
  }

  m.set_objective(solver::Sense::kMaximize, total);

  LbOptimalResult res;
  std::vector<double> sol;
  if (m.lp().is_mip()) {
    auto s = m.solve(opts.milp);
    if (s.status != solver::Status::kOptimal) return res;
    res.total = s.obj;
    sol = std::move(s.x);
  } else {
    auto s = m.solve_lp();
    if (s.status != solver::Status::kOptimal) return res;
    res.total = s.obj;
    sol = std::move(s.x);
  }
  res.feasible = true;
  res.flow.resize(K);
  for (int k = 0; k < K; ++k) {
    res.flow[k].reserve(f[k].size());
    for (model::Var v : f[k]) res.flow[k].push_back(m.value(sol, v));
  }
  return res;
}

namespace {

// solve_lb_optimal's default-configuration LP, assembled directly: row k is
// commodity k's demand row, row K + l is link l's capacity row (only those
// rhs move per sample), all at the center of the input box.
solver::LpProblem lb_lp(const LbInstance& inst) {
  const int K = inst.num_commodities();
  solver::LpProblem lp;
  lp.sense = solver::Sense::kMaximize;
  int nflows = 0;
  for (const auto& c : inst.commodities)
    nflows += static_cast<int>(c.paths.size());
  lp.reserve(nflows, K + inst.topo.num_links());
  std::vector<std::vector<std::pair<int, double>>> link_load(
      inst.topo.num_links());
  std::vector<std::pair<int, double>> routed;
  for (int k = 0; k < K; ++k) {
    const auto& paths = inst.commodities[k].paths;
    routed.clear();
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const int v = lp.add_col(0, solver::kInf, 1.0);
      routed.emplace_back(v, 1.0);
      for (te::LinkId l : paths[p].links(inst.topo))
        link_load[l.v].emplace_back(v, 1.0);
    }
    lp.add_row(routed, solver::RowSense::kLe, 0.5 * inst.t_max);
  }
  const std::vector<double> center_caps = inst.effective_capacities(
      inst.has_skew_dim() ? 0.5 * (inst.skew_lo + inst.skew_hi) : 1.0);
  for (int l = 0; l < inst.topo.num_links(); ++l)
    lp.add_row(std::move(link_load[l]), solver::RowSense::kLe,
               center_caps[l]);
  return lp;
}

// The gap path reads only the objective.
solver::SimplexOptions sample_options() {
  solver::SimplexOptions sopts;
  sopts.want_duals = false;
  sopts.want_basis = false;
  return sopts;
}

}  // namespace

LbOptimalSolver::LbOptimalSolver(const LbInstance& inst)
    : inst_(inst),
      path_links_(inst.path_links()),
      session_(lb_lp(inst), sample_options()) {
  // Fixed reference basis from a cold solve at the input-box center,
  // pinned for every later solve (cold solves without an optimal one).
  solver::SimplexOptions ref_opts;
  ref_opts.want_duals = false;
  const auto ref = solver::solve_lp(session_.problem(), ref_opts);
  if (ref.status == solver::Status::kOptimal) session_.pin(ref.basis);
}

double LbOptimalSolver::solve_total(const std::vector<double>& x) {
  const LbInstance& inst = inst_;
  assert(static_cast<int>(x.size()) == inst.input_dim());
  const int K = inst.num_commodities();
  for (int k = 0; k < K; ++k)
    session_.set_row_rhs(k, std::clamp(x[k], 0.0, inst.t_max));
  const std::vector<double> caps =
      inst.effective_capacities(inst.skew_of(x));
  for (int l = 0; l < inst.topo.num_links(); ++l)
    session_.set_row_rhs(K + l, std::max(0.0, caps[l]));
  const auto s = session_.solve();
  return s.status == solver::Status::kOptimal ? s.obj : -1.0;
}

double lb_gap_cached(const LbInstance& inst, const std::vector<double>& x,
                     LbOptimalSolver& opt) {
  const double opt_total = opt.solve_total(x);
  if (opt_total < 0.0) return 0.0;
  return std::max(0.0, opt_total - wcmp_total(inst, opt.path_links(), x));
}

}  // namespace xplain::lb
