#include "cases/ff_case.h"

#include <algorithm>
#include <cmath>

#include "generalize/features.h"
#include "vbp/optimal.h"

namespace xplain::cases {

VbpGapEvaluator::VbpGapEvaluator(vbp::VbpInstance inst, vbp::VbpHeuristic h,
                                 double quantum)
    : inst_(std::move(inst)), h_(h), quantum_(quantum) {}

int VbpGapEvaluator::dim() const { return inst_.input_dim(); }

analyzer::Box VbpGapEvaluator::input_box() const {
  analyzer::Box b;
  b.lo.assign(dim(), 0.0);
  b.hi.assign(dim(), inst_.capacity);
  return b;
}

double VbpGapEvaluator::gap(const std::vector<double>& x) const {
  return vbp::vbp_gap(inst_, x, h_);
}

std::vector<double> VbpGapEvaluator::quantize(
    const std::vector<double>& x) const {
  std::vector<double> q(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    q[i] = std::clamp(std::round(x[i] / quantum_) * quantum_, 0.0,
                      inst_.capacity);
  return q;
}

std::vector<std::string> VbpGapEvaluator::dim_names() const {
  std::vector<std::string> names;
  for (int b = 0; b < inst_.num_balls; ++b)
    for (int t = 0; t < inst_.dims; ++t) {
      std::string n = "Y[" + std::to_string(b) + "]";
      if (inst_.dims > 1) n += "[" + std::to_string(t) + "]";
      names.push_back(std::move(n));
    }
  return names;
}

std::string VbpGapEvaluator::name() const {
  return std::string("vbp_") + vbp::to_string(h_);
}

explain::FlowOracle make_vbp_oracle(const vbp::FfNetwork& ff,
                                    const vbp::VbpInstance& inst,
                                    vbp::VbpHeuristic h) {
  return [&ff, inst, h](const std::vector<double>& x,
                        std::vector<double>& hflow,
                        std::vector<double>& bflow) {
    auto heur = vbp::run_heuristic(h, inst, x);
    if (!heur.complete) return false;
    auto opt = vbp::optimal_packing(inst, x);
    hflow = vbp::ff_network_flows(ff, inst, x, heur);
    bflow = vbp::ff_network_flows(ff, inst, x, opt.packing);
    return true;
  };
}

VbpCase::VbpCase(vbp::VbpInstance inst, vbp::VbpHeuristic h, double quantum)
    : inst_(std::move(inst)), h_(h), quantum_(quantum),
      ffnet_(vbp::build_ff_network(inst_)) {}

vbp::VbpInstance VbpCase::paper_instance() {
  vbp::VbpInstance inst;
  inst.num_balls = 4;
  inst.num_bins = 3;
  inst.dims = 1;
  inst.capacity = 1.0;
  return inst;
}

vbp::VbpInstance VbpCase::scenario_instance(
    const scenario::ScenarioSpec& spec) {
  vbp::VbpInstance inst;
  inst.num_balls = std::clamp(spec.size, 2, 8);
  inst.num_bins = inst.num_balls - 1;
  inst.dims = 1;
  inst.capacity = 1.0;
  return inst;
}

std::string VbpCase::name() const { return vbp::to_string(h_); }

std::string VbpCase::description() const {
  return std::string(vbp::to_string(h_)) +
         " vector bin packing vs exact optimal packing";
}

std::unique_ptr<analyzer::GapEvaluator> VbpCase::make_evaluator() const {
  return std::make_unique<VbpGapEvaluator>(inst_, h_, quantum_);
}

explain::FlowOracle VbpCase::make_oracle() const {
  return make_vbp_oracle(ffnet_, inst_, h_);
}

std::map<std::string, double> VbpCase::features() const {
  return generalize::vbp_instance_features(inst_);
}

namespace {
[[maybe_unused]] const CaseRegistrar ff_registrar(
    "first_fit", [](const scenario::ScenarioSpec* spec) {
      return spec ? std::make_shared<FfCase>(VbpCase::scenario_instance(*spec))
                  : FfCase::paper();
    });
}  // namespace

}  // namespace xplain::cases
