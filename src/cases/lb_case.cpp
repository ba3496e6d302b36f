#include "cases/lb_case.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "analyzer/search_analyzer.h"
#include "generalize/features.h"
#include "scenario/scenario.h"

namespace xplain::cases {

namespace {

/// Per-thread optimal-routing session cache for the lb_gap sampling hot
/// loop — the LB twin of dp_case.cpp's MaxFlowSolver cache.  One
/// LbOptimalSolver per (thread, live GapEvaluator::id()): the optimal LP
/// is compiled once into a pinned LpSession and the candidate paths' link
/// ids are resolved once for the WCMP side, so each sample only moves row
/// rhs and restores the session's pinned reference basis.  Every solve
/// restores that same fixed state, never the previous sample's basis, so
/// results stay a pure function of the input (parallel determinism holds).
lb::LbOptimalSolver& thread_lb_solver(std::uint64_t id,
                                      const lb::LbInstance& inst) {
  thread_local std::uint64_t cached_id = 0;
  thread_local std::unique_ptr<lb::LbOptimalSolver> solver;
  if (cached_id != id) {
    solver = std::make_unique<lb::LbOptimalSolver>(inst);
    cached_id = id;
  }
  return *solver;
}

}  // namespace

LbGapEvaluator::LbGapEvaluator(lb::LbInstance inst, double rate_quantum,
                               double skew_quantum)
    : inst_(std::move(inst)),
      rate_quantum_(rate_quantum),
      skew_quantum_(skew_quantum) {}

int LbGapEvaluator::dim() const { return inst_.input_dim(); }

analyzer::Box LbGapEvaluator::input_box() const {
  analyzer::Box b;
  b.lo.assign(dim(), 0.0);
  b.hi.assign(dim(), inst_.t_max);
  if (inst_.has_skew_dim()) {
    b.lo.back() = inst_.skew_lo;
    b.hi.back() = inst_.skew_hi;
  }
  return b;
}

double LbGapEvaluator::gap(const std::vector<double>& x) const {
  return lb::lb_gap_cached(inst_, x, thread_lb_solver(id(), inst_));
}

std::vector<double> LbGapEvaluator::quantize(
    const std::vector<double>& x) const {
  std::vector<double> q(x.size());
  for (int k = 0; k < inst_.num_commodities(); ++k)
    q[k] = std::clamp(std::round(x[k] / rate_quantum_) * rate_quantum_, 0.0,
                      inst_.t_max);
  if (inst_.has_skew_dim()) {
    const int s = inst_.num_commodities();
    q[s] = std::clamp(std::round(x[s] / skew_quantum_) * skew_quantum_,
                      inst_.skew_lo, inst_.skew_hi);
  }
  return q;
}

std::vector<std::string> LbGapEvaluator::dim_names() const {
  std::vector<std::string> names;
  names.reserve(dim());
  for (const auto& c : inst_.commodities) names.push_back("t[" + c.name() + "]");
  if (inst_.has_skew_dim()) names.push_back("cap_skew");
  return names;
}

explain::FlowOracle make_lb_oracle(const lb::LbNetwork& lbn,
                                   const lb::LbInstance& inst) {
  return [&lbn, &inst](const std::vector<double>& x,
                       std::vector<double>& hflow,
                       std::vector<double>& bflow) {
    auto heur = lb::wcmp_split(inst, x);
    auto opt = lb::solve_lb_optimal(inst, x);
    if (!opt.feasible) return false;
    hflow = lb::lb_network_flows(lbn, inst, x, heur.flow);
    bflow = lb::lb_network_flows(lbn, inst, x, opt.flow);
    return true;
  };
}

LbCase::LbCase(lb::LbInstance inst, double rate_quantum)
    : inst_(std::move(inst)),
      rate_quantum_(rate_quantum),
      lbnet_(lb::build_lb_network(inst_)) {}

std::shared_ptr<LbCase> LbCase::fat_tree4() {
  scenario::ScenarioSpec spec;
  spec.kind = scenario::TopologyKind::kFatTree;
  spec.size = 4;
  spec.capacity = 100.0;
  spec.seed = 3;
  return from_scenario(spec);
}

std::shared_ptr<LbCase> LbCase::from_scenario(
    const scenario::ScenarioSpec& spec) {
  lb::LbInstance inst = scenario::make_lb_instance(
      spec, /*num_commodities=*/8, /*k_paths=*/3, /*t_max=*/100.0,
      /*skew_lo=*/0.25, /*skew_hi=*/1.0);
  return std::make_shared<LbCase>(std::move(inst));
}

std::unique_ptr<analyzer::GapEvaluator> LbCase::make_evaluator() const {
  return std::make_unique<LbGapEvaluator>(inst_, rate_quantum_);
}

std::unique_ptr<analyzer::HeuristicAnalyzer> LbCase::make_analyzer(
    std::uint64_t seed_salt) const {
  // WCMP breaks where links saturate: bias the structured seeds toward the
  // top of the rate box (and, through the same fractions, a squeezed skew),
  // where proportional splits fight over shared bottlenecks.
  analyzer::SearchOptions opts;
  opts.seed += seed_salt;
  opts.seed_fracs = {0.01, 0.49, 0.75, 0.9, 0.99};
  return std::make_unique<analyzer::SearchAnalyzer>(opts);
}

explain::FlowOracle LbCase::make_oracle() const {
  return make_lb_oracle(lbnet_, inst_);
}

std::map<std::string, double> LbCase::features() const {
  return generalize::lb_instance_features(inst_);
}

namespace {
[[maybe_unused]] const CaseRegistrar lb_registrar(
    "wcmp", [](const scenario::ScenarioSpec* spec) {
      return spec ? LbCase::from_scenario(*spec) : LbCase::fat_tree4();
    });
}  // namespace

}  // namespace xplain::cases
