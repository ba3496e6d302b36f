#include "cases/dp_case.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "generalize/features.h"
#include "generalize/instance_generator.h"
#include "scenario/scenario.h"
#include "te/maxflow.h"

namespace xplain::cases {

DpGapEvaluator::DpGapEvaluator(te::TeInstance inst, te::DpConfig cfg,
                               double quantum)
    : inst_(std::move(inst)),
      cfg_(cfg),
      quantum_(quantum) {}

int DpGapEvaluator::dim() const { return inst_.num_pairs(); }

analyzer::Box DpGapEvaluator::input_box() const {
  analyzer::Box b;
  b.lo.assign(dim(), 0.0);
  b.hi.assign(dim(), inst_.d_max);
  return b;
}

double DpGapEvaluator::gap(const std::vector<double>& x) const {
  return te::dp_gap(inst_, cfg_, x, &te::thread_max_flow_solver(id(), inst_));
}

std::vector<double> DpGapEvaluator::quantize(
    const std::vector<double>& x) const {
  std::vector<double> q(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    q[i] = std::clamp(std::round(x[i] / quantum_) * quantum_, 0.0,
                      inst_.d_max);
  return q;
}

std::vector<std::string> DpGapEvaluator::dim_names() const {
  std::vector<std::string> names;
  names.reserve(inst_.num_pairs());
  for (const auto& p : inst_.pairs) names.push_back("d[" + p.name() + "]");
  return names;
}

explain::FlowOracle make_dp_oracle(const te::PathNetwork& pn,
                                   const te::TeInstance& inst,
                                   const te::DpConfig& cfg) {
  return [&pn, &inst, cfg](const std::vector<double>& x,
                           std::vector<double>& hflow,
                           std::vector<double>& bflow) {
    auto heur = te::run_demand_pinning(inst, cfg, x);
    if (!heur.feasible) return false;
    auto opt = te::solve_max_flow(inst, x);
    if (!opt.feasible) return false;
    hflow = te::path_network_flows(pn, inst, x, heur.flow);
    bflow = te::path_network_flows(pn, inst, x, opt.flow);
    return true;
  };
}

DpCase::DpCase(te::TeInstance inst, te::DpConfig cfg, double quantum)
    : inst_(std::move(inst)),
      cfg_(cfg),
      quantum_(quantum),
      pnet_(te::build_path_network(inst_, "demand_pinning")) {}

std::shared_ptr<DpCase> DpCase::fig1a() {
  return std::make_shared<DpCase>(te::TeInstance::fig1a_example(),
                                  te::DpConfig{50.0});
}

std::shared_ptr<DpCase> DpCase::from_scenario(
    const scenario::ScenarioSpec& spec) {
  // The Fig. 1a regime (d_max 100, pinning threshold at half of it)
  // transplanted onto the generated topology; 6 pairs keeps the analyzer
  // input space grid-sweepable while still contending for shared links.
  constexpr double kDmax = 100.0;
  te::TeInstance inst =
      scenario::make_te_instance(spec, /*num_pairs=*/6, /*k_paths=*/2, kDmax);
  return std::make_shared<DpCase>(std::move(inst), te::DpConfig{kDmax / 2});
}

std::shared_ptr<DpCase> DpCase::chain_from_scenario(
    const scenario::ScenarioSpec& spec) {
  // The chain reads size as its length, and a job's cost grows steeply with
  // it (one subspace, no explanation samples: 0.5 s at 16, 6.2 s at 32, 51 s
  // at 64 on a 4-vCPU VM) — far inside the topology bounds of
  // scenario/spec.h, so the chain keeps its own.
  constexpr int kMaxChainLen = 32;
  if (spec.size > kMaxChainLen)
    throw std::invalid_argument(
        "demand_pinning_chain: chain length " + std::to_string(spec.size) +
        " exceeds " + std::to_string(kMaxChainLen));
  generalize::DpFamilyParams params;
  params.chain_len = std::max(2, spec.size);
  params.detour_capacity = spec.capacity;
  return std::make_shared<DpCase>(generalize::make_dp_family_instance(params),
                                  te::DpConfig{params.threshold});
}

std::unique_ptr<analyzer::GapEvaluator> DpCase::make_evaluator() const {
  return std::make_unique<DpGapEvaluator>(inst_, cfg_, quantum_);
}

explain::FlowOracle DpCase::make_oracle() const {
  return make_dp_oracle(pnet_, inst_, cfg_);
}

std::map<std::string, double> DpCase::features() const {
  return generalize::dp_instance_features(inst_, cfg_);
}

namespace {
[[maybe_unused]] const CaseRegistrar dp_registrar(
    "demand_pinning", [](const scenario::ScenarioSpec* spec) {
      return spec ? DpCase::from_scenario(*spec) : DpCase::fig1a();
    });
[[maybe_unused]] const CaseRegistrar dp_chain_registrar(
    "demand_pinning_chain", [](const scenario::ScenarioSpec* spec) {
      return spec ? DpCase::chain_from_scenario(*spec)
                  : DpCase::chain_from_scenario(scenario::ScenarioSpec{
                        scenario::TopologyKind::kLine, /*size=*/2});
    });
}  // namespace

}  // namespace xplain::cases
