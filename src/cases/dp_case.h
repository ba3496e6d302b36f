// Demand Pinning as a pluggable HeuristicCase (paper §2 / Fig. 1 / Fig. 4a).
//
// Everything DP-specific the pipeline consumes lives here: the gap
// evaluator (DP simulation vs optimal max-flow), the Type-2 flow oracle
// over the Fig. 4a network, and the HeuristicCase bundling them.  The core
// analyzer/subspace/explain layers never see a te/ header.
//
// Registered in the CaseRegistry as "demand_pinning" with the paper's
// Fig. 1a instance as the default.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analyzer/evaluator.h"
#include "scenario/spec.h"
#include "te/demand_pinning.h"
#include "xplain/case.h"

namespace xplain::cases {

/// Demand Pinning vs optimal max-flow on a TE instance.
class DpGapEvaluator : public analyzer::GapEvaluator {
 public:
  DpGapEvaluator(te::TeInstance inst, te::DpConfig cfg, double quantum = 1.0);

  int dim() const override;
  analyzer::Box input_box() const override;
  double gap(const std::vector<double>& x) const override;
  std::vector<double> quantize(const std::vector<double>& x) const override;
  std::vector<std::string> dim_names() const override;
  std::string name() const override { return "demand_pinning"; }

  const te::TeInstance& instance() const { return inst_; }
  const te::DpConfig& config() const { return cfg_; }

 private:
  te::TeInstance inst_;
  te::DpConfig cfg_;
  double quantum_;
};

/// DP oracle: heuristic = demand-pinning simulation, benchmark = optimal
/// max-flow, both mapped onto the Fig. 4a network's edges.  The referenced
/// network and instance must outlive the oracle.
explain::FlowOracle make_dp_oracle(const te::DpNetwork& dp,
                                   const te::TeInstance& inst,
                                   const te::DpConfig& cfg);

class DpCase : public HeuristicCase {
 public:
  explicit DpCase(te::TeInstance inst, te::DpConfig cfg = {},
                  double quantum = 1.0);

  /// The paper's Fig. 1a instance with threshold 50 (the registry default).
  static std::shared_ptr<DpCase> fig1a();

  /// DP over a generated scenario topology (the registry's spec path): 6
  /// demand pairs drawn seed-deterministically from the scenario, 2
  /// candidate paths each, d_max 100 and the Fig. 1a-style threshold at
  /// d_max / 2.  This finally drives Demand Pinning across the scenario
  /// corpus instead of only its private chain-with-detour family.
  static std::shared_ptr<DpCase> from_scenario(
      const scenario::ScenarioSpec& spec);

  /// The paper's §5.4 chain-with-detour family as a scenario-parameterized
  /// case (registered as "demand_pinning_chain"): spec.size is the chain
  /// length (clamped to >= 2), spec.capacity the detour capacity, with the
  /// family's main capacity 100 / threshold 50 / d_max 100.  Experiment
  /// grids over this name sweep exactly the instances the paper's Type-3
  /// section mines increasing(pinned path length) from.
  static std::shared_ptr<DpCase> chain_from_scenario(
      const scenario::ScenarioSpec& spec);

  std::string name() const override { return "demand_pinning"; }
  std::string description() const override {
    return "Demand Pinning vs optimal max-flow on a WAN TE instance";
  }
  std::unique_ptr<analyzer::GapEvaluator> make_evaluator() const override;
  const flowgraph::FlowNetwork& network() const override { return dpnet_.net; }
  explain::FlowOracle make_oracle() const override;
  std::map<std::string, double> features() const override;
  double gap_scale() const override { return inst_.d_max; }

  const te::TeInstance& instance() const { return inst_; }
  const te::DpConfig& config() const { return cfg_; }
  const te::DpNetwork& dp_network() const { return dpnet_; }

 private:
  te::TeInstance inst_;
  te::DpConfig cfg_;
  double quantum_;
  te::DpNetwork dpnet_;
};

}  // namespace xplain::cases
