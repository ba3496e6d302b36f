#include "te/maxflow.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "solver/simplex.h"

namespace xplain::te {

std::vector<double> FlowResult::link_utilization(
    const TeInstance& inst) const {
  std::vector<double> util(inst.topo.num_links(), 0.0);
  for (int k = 0; k < inst.num_pairs(); ++k) {
    if (flow[k].empty()) continue;
    for (std::size_t p = 0; p < inst.pairs[k].paths.size(); ++p) {
      for (LinkId l : inst.pairs[k].paths[p].links(inst.topo))
        util[l.v] += flow[k][p];
    }
  }
  return util;
}

FlowResult solve_max_flow(const TeInstance& inst, const std::vector<double>& d,
                          const std::vector<double>* residual_caps,
                          const std::vector<bool>* skip) {
  assert(static_cast<int>(d.size()) == inst.num_pairs());
  // This runs once or twice per gap() evaluation — the innermost loop of
  // the sampling stages — so the LP is assembled directly (no Model /
  // LinExpr temporaries; that front end measurably dominated the solve on
  // these tiny instances).
  solver::LpProblem lp;
  lp.sense = solver::Sense::kMaximize;
  int nvars = 0;
  for (int k = 0; k < inst.num_pairs(); ++k)
    if (!skip || !(*skip)[k])
      nvars += static_cast<int>(inst.pairs[k].paths.size());
  lp.reserve(nvars, inst.num_pairs() + inst.topo.num_links());
  // Per (pair, path) flow variable; objective 1 on each (maximize total).
  std::vector<int> first_var(inst.num_pairs(), -1);
  std::vector<std::vector<std::pair<int, double>>> link_load(
      inst.topo.num_links());
  std::vector<std::pair<int, double>> routed;
  for (int k = 0; k < inst.num_pairs(); ++k) {
    if (skip && (*skip)[k]) continue;
    const auto& paths = inst.pairs[k].paths;
    routed.clear();
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const int v = lp.add_col(0, solver::kInf, 1.0);
      if (p == 0) first_var[k] = v;
      routed.emplace_back(v, 1.0);
      for (LinkId l : paths[p].links(inst.topo))
        link_load[l.v].emplace_back(v, 1.0);
    }
    lp.add_row(routed, solver::RowSense::kLe, d[k]);
  }
  for (int l = 0; l < inst.topo.num_links(); ++l) {
    const double cap =
        residual_caps ? (*residual_caps)[l] : inst.topo.link(LinkId{l}).capacity;
    lp.add_row(std::move(link_load[l]), solver::RowSense::kLe, cap);
  }
  // Neither the duals nor the basis are consumed here — skip extracting
  // them on this innermost-loop solve.
  solver::SimplexOptions sopts;
  sopts.want_duals = false;
  sopts.want_basis = false;
  auto s = solver::solve_lp(lp, sopts);

  FlowResult res;
  if (s.status != solver::Status::kOptimal) return res;
  res.feasible = true;
  res.total = s.obj;
  res.flow.resize(inst.num_pairs());
  for (int k = 0; k < inst.num_pairs(); ++k) {
    res.flow[k].assign(inst.pairs[k].paths.size(), 0.0);
    if (first_var[k] < 0) continue;
    for (std::size_t p = 0; p < inst.pairs[k].paths.size(); ++p)
      res.flow[k][p] = s.x[first_var[k] + static_cast<int>(p)];
  }
  return res;
}

namespace {

// MaxFlowSolver's LP: solve_max_flow's formulation, built with EVERY pair's
// columns — a skipped pair is expressed per solve by dropping its demand
// row's rhs to 0 (forcing its flows to 0) instead of by omitting columns,
// so the structure, and with it the pinned basis, survives any
// (d, residual, skip) combination.  Row k is pair k's demand row, at the
// center of the demand box; row num_pairs + l is link l's capacity row.
// Records each pair's first flow column and path count.
solver::LpProblem max_flow_lp(const TeInstance& inst,
                              std::vector<int>& first_flow_var,
                              std::vector<int>& num_paths) {
  const int num_pairs = inst.num_pairs();
  const int num_links = inst.topo.num_links();
  solver::LpProblem lp;
  lp.sense = solver::Sense::kMaximize;
  int nflows = 0;
  for (int k = 0; k < num_pairs; ++k)
    nflows += static_cast<int>(inst.pairs[k].paths.size());
  lp.reserve(nflows, num_pairs + num_links);

  first_flow_var.assign(num_pairs, -1);
  num_paths.assign(num_pairs, 0);
  std::vector<std::vector<std::pair<int, double>>> link_load(num_links);
  std::vector<std::pair<int, double>> routed;
  for (int k = 0; k < num_pairs; ++k) {
    const auto& paths = inst.pairs[k].paths;
    num_paths[k] = static_cast<int>(paths.size());
    routed.clear();
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const int v = lp.add_col(0, solver::kInf, 1.0);
      if (p == 0) first_flow_var[k] = v;
      routed.emplace_back(v, 1.0);
      for (LinkId l : paths[p].links(inst.topo))
        link_load[l.v].emplace_back(v, 1.0);
    }
    lp.add_row(routed, solver::RowSense::kLe, 0.5 * inst.d_max);
  }
  for (int l = 0; l < num_links; ++l)
    lp.add_row(std::move(link_load[l]), solver::RowSense::kLe,
               inst.topo.link(LinkId{l}).capacity);
  return lp;
}

// Neither the duals nor the basis of a sample's solve are consumed.
solver::SimplexOptions sample_options() {
  solver::SimplexOptions sopts;
  sopts.want_duals = false;
  sopts.want_basis = false;
  return sopts;
}

}  // namespace

MaxFlowSolver::MaxFlowSolver(const TeInstance& inst)
    : num_pairs_(inst.num_pairs()),
      num_links_(inst.topo.num_links()),
      session_(max_flow_lp(inst, first_flow_var_, num_paths_),
               sample_options()) {
  base_caps_.resize(num_links_);
  for (int l = 0; l < num_links_; ++l)
    base_caps_[l] = inst.topo.link(LinkId{l}).capacity;
  for (const TePair& pair : inst.pairs)
    shortest_links_.add(inst.topo, pair.paths[0]);

  // Reference basis: one cold solve at the center of the demand box (the
  // expected sampling point — uniform sampling concentrates there, so the
  // repair distance from the reference to a typical sample is small),
  // pinned so results never depend on which samples this thread solved
  // before.  Without an optimal reference every solve starts cold.
  solver::SimplexOptions ref_opts;
  ref_opts.want_duals = false;
  const auto ref = solver::solve_lp(session_.problem(), ref_opts);
  if (ref.status == solver::Status::kOptimal) session_.pin(ref.basis);
}

solver::LpSolution MaxFlowSolver::run(const std::vector<double>& d,
                                      const std::vector<double>* residual_caps,
                                      const std::vector<bool>* skip) {
  assert(static_cast<int>(d.size()) == num_pairs_);
  for (int k = 0; k < num_pairs_; ++k) {
    const double rhs = skip && (*skip)[k] ? 0.0 : std::max(0.0, d[k]);
    session_.set_row_rhs(k, rhs);
  }
  for (int l = 0; l < num_links_; ++l) {
    const double cap =
        std::max(0.0, residual_caps ? (*residual_caps)[l] : base_caps_[l]);
    session_.set_row_rhs(num_pairs_ + l, cap);
  }
  return session_.solve();
}

FlowResult MaxFlowSolver::solve(const std::vector<double>& d,
                                const std::vector<double>* residual_caps,
                                const std::vector<bool>* skip) {
  const auto s = run(d, residual_caps, skip);
  FlowResult res;
  if (s.status != solver::Status::kOptimal) return res;
  res.feasible = true;
  res.total = s.obj;
  res.flow.resize(num_pairs_);
  for (int k = 0; k < num_pairs_; ++k) {
    res.flow[k].assign(num_paths_[k], 0.0);
    if (skip && (*skip)[k]) continue;
    for (int p = 0; p < num_paths_[k]; ++p)
      res.flow[k][p] = s.x[first_flow_var_[k] + p];
  }
  return res;
}

std::optional<double> MaxFlowSolver::solve_total(
    const std::vector<double>& d) {
  const auto s = run(d, nullptr, nullptr);
  if (s.status != solver::Status::kOptimal) return std::nullopt;
  return s.obj;
}

}  // namespace xplain::te
