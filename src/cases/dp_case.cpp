#include "cases/dp_case.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "generalize/features.h"
#include "generalize/instance_generator.h"
#include "scenario/scenario.h"
#include "te/maxflow.h"

namespace xplain::cases {

namespace {

/// Per-thread max-flow session cache for the dp_gap sampling hot loop.
///
/// A gap() call solves two max-flow LPs on the SAME instance (the residual
/// flow inside run_demand_pinning and the OPT benchmark), thousands of
/// times per pipeline stage.  Each thread keeps one MaxFlowSolver per live
/// evaluator identity: its LP is compiled once into a pinned LpSession, and
/// every sample's solves only move row right-hand sides (demands, residual
/// capacities) and restore the session's pinned reference basis — already
/// factorized — instead of rebuilding and refactorizing it.  Keyed by a
/// process-unique id rather than the evaluator pointer so a recycled
/// allocation can never alias a dead evaluator's cache entry; the single
/// slot is enough because sampling stages drive one evaluator at a time.
/// Determinism: every solve restores the same fixed reference state, never
/// the previous sample's basis, so each solve is a pure function of its
/// inputs and worker count and sample order never change results
/// (test_parallel_determinism).
std::uint64_t next_evaluator_id() {
  static std::atomic<std::uint64_t> counter{0};
  // Relaxed: ids only need uniqueness, not ordering against other memory.
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

te::MaxFlowSolver& thread_max_flow_solver(std::uint64_t id,
                                          const te::TeInstance& inst) {
  thread_local std::uint64_t cached_id = 0;
  thread_local std::unique_ptr<te::MaxFlowSolver> solver;
  if (cached_id != id) {
    solver = std::make_unique<te::MaxFlowSolver>(inst);
    cached_id = id;
  }
  return *solver;
}

}  // namespace

DpGapEvaluator::DpGapEvaluator(te::TeInstance inst, te::DpConfig cfg,
                               double quantum)
    : inst_(std::move(inst)),
      cfg_(cfg),
      quantum_(quantum),
      cache_id_(next_evaluator_id()) {}

int DpGapEvaluator::dim() const { return inst_.num_pairs(); }

analyzer::Box DpGapEvaluator::input_box() const {
  analyzer::Box b;
  b.lo.assign(dim(), 0.0);
  b.hi.assign(dim(), inst_.d_max);
  return b;
}

double DpGapEvaluator::gap(const std::vector<double>& x) const {
  return te::dp_gap(inst_, cfg_, x,
                    &thread_max_flow_solver(cache_id_, inst_));
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

explain::FlowOracle make_dp_oracle(const te::DpNetwork& dp,
                                   const te::TeInstance& inst,
                                   const te::DpConfig& cfg) {
  return [&dp, &inst, cfg](const std::vector<double>& x,
                           std::vector<double>& hflow,
                           std::vector<double>& bflow) {
    auto heur = te::run_demand_pinning(inst, cfg, x);
    if (!heur.feasible) return false;
    auto opt = te::solve_max_flow(inst, x);
    if (!opt.feasible) return false;
    hflow = te::dp_network_flows(dp, inst, x, heur.flow);
    bflow = te::dp_network_flows(dp, inst, x, opt.flow);
    return true;
  };
}

DpCase::DpCase(te::TeInstance inst, te::DpConfig cfg, double quantum)
    : inst_(std::move(inst)),
      cfg_(cfg),
      quantum_(quantum),
      dpnet_(te::build_dp_network(inst_)) {}

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
  return make_dp_oracle(dpnet_, inst_, cfg_);
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
