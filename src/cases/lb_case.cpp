#include "cases/lb_case.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "analyzer/search_analyzer.h"
#include "generalize/features.h"
#include "lb/optimal.h"
#include "lb/wcmp.h"
#include "scenario/scenario.h"
#include "te/maxflow.h"

namespace xplain::cases {

LbGapEvaluator::LbGapEvaluator(te::TeInstance inst, double rate_quantum,
                               double skew_quantum)
    : inst_(std::move(inst)),
      rate_quantum_(rate_quantum),
      skew_quantum_(skew_quantum) {}

int LbGapEvaluator::dim() const { return inst_.input_dim(); }

analyzer::Box LbGapEvaluator::input_box() const {
  analyzer::Box b;
  b.lo.assign(dim(), 0.0);
  b.hi.assign(dim(), inst_.d_max);
  if (inst_.has_skew_dim()) {
    b.lo.back() = inst_.skew_lo;
    b.hi.back() = inst_.skew_hi;
  }
  return b;
}

double LbGapEvaluator::gap(const std::vector<double>& x) const {
  return lb::lb_gap(inst_, x, &te::thread_max_flow_solver(id(), inst_));
}

std::vector<double> LbGapEvaluator::quantize(
    const std::vector<double>& x) const {
  std::vector<double> q(x.size());
  for (int k = 0; k < inst_.num_pairs(); ++k)
    q[k] = std::clamp(std::round(x[k] / rate_quantum_) * rate_quantum_, 0.0,
                      inst_.d_max);
  if (inst_.has_skew_dim()) {
    const int s = inst_.num_pairs();
    q[s] = std::clamp(std::round(x[s] / skew_quantum_) * skew_quantum_,
                      inst_.skew_lo, inst_.skew_hi);
  }
  return q;
}

std::vector<std::string> LbGapEvaluator::dim_names() const {
  std::vector<std::string> names;
  names.reserve(dim());
  for (const auto& p : inst_.pairs) names.push_back("t[" + p.name() + "]");
  if (inst_.has_skew_dim()) names.push_back("cap_skew");
  return names;
}

explain::FlowOracle make_lb_oracle(const te::PathNetwork& pn,
                                   const te::TeInstance& inst) {
  return [&pn, &inst](const std::vector<double>& x,
                      std::vector<double>& hflow,
                      std::vector<double>& bflow) {
    auto heur = lb::wcmp_split(inst, x);
    auto opt = lb::solve_lb_optimal(inst, x);
    if (!opt.feasible) return false;
    hflow = te::path_network_flows(pn, inst, x, heur.flow);
    bflow = te::path_network_flows(pn, inst, x, opt.flow);
    return true;
  };
}

LbCase::LbCase(te::TeInstance inst, double rate_quantum)
    : inst_(std::move(inst)),
      rate_quantum_(rate_quantum),
      pnet_(te::build_path_network(inst_, "wcmp_load_balancing")) {}

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
  te::TeInstance inst = scenario::make_te_instance(
      spec, /*num_pairs=*/8, /*k_paths=*/3, /*d_max=*/100.0);
  inst.skew_top_tier(/*lo=*/0.25, /*hi=*/1.0);
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
  return make_lb_oracle(pnet_, inst_);
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
