// WCMP traffic load balancing as a pluggable HeuristicCase — the fourth
// registered case study, and the first from the data-plane family (the
// DP/FF/BF trio are control-plane allocation heuristics).
//
// WCMP runs on the same path-flow domain as Demand Pinning: te's instance
// with its top capacity tier skewed, te's Fig. 4a network, and te's
// max-flow session as the benchmark LP.  The analyzer input is
// per-commodity traffic rates plus a capacity-skew dimension, so the
// subspace generator can localize WCMP's underperformance jointly in "how
// much traffic" and "how squeezed the core tier is".
//
// Registered in the CaseRegistry as "wcmp" with a fat-tree(4) scenario
// (8 inter-rack commodities, core uplinks skewed over [0.25, 1]).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analyzer/evaluator.h"
#include "scenario/spec.h"
#include "te/demand.h"
#include "xplain/case.h"

namespace xplain::cases {

/// WCMP local-greedy split vs optimal splittable routing on a skewed
/// path-flow instance.
class LbGapEvaluator : public analyzer::GapEvaluator {
 public:
  explicit LbGapEvaluator(te::TeInstance inst, double rate_quantum = 1.0,
                          double skew_quantum = 0.01);

  int dim() const override;
  analyzer::Box input_box() const override;
  double gap(const std::vector<double>& x) const override;
  std::vector<double> quantize(const std::vector<double>& x) const override;
  std::vector<std::string> dim_names() const override;
  std::string name() const override { return "wcmp"; }

  const te::TeInstance& instance() const { return inst_; }

 private:
  te::TeInstance inst_;
  double rate_quantum_;
  double skew_quantum_;
};

/// LB oracle: heuristic = WCMP split, benchmark = optimal splittable
/// routing, both mapped onto the Fig. 4a network's edges.  The referenced
/// network and instance must outlive the oracle.
explain::FlowOracle make_lb_oracle(const te::PathNetwork& pn,
                                   const te::TeInstance& inst);

class LbCase : public HeuristicCase {
 public:
  explicit LbCase(te::TeInstance inst, double rate_quantum = 1.0);

  /// The registry default: fat-tree(4), 8 inter-rack commodities, 3
  /// candidate paths each, rates in [0, 100], core uplinks skewed over
  /// [0.25, 1].
  static std::shared_ptr<LbCase> fat_tree4();

  /// WCMP over any generated scenario (the registry's spec path): the
  /// fat_tree4 commodity/path/skew regime transplanted onto `spec`'s
  /// topology — 8 commodities, 3 candidate paths, rates in [0, 100], top
  /// capacity tier skewed over [0.25, 1].
  static std::shared_ptr<LbCase> from_scenario(
      const scenario::ScenarioSpec& spec);

  std::string name() const override { return "wcmp"; }
  std::string description() const override {
    return "WCMP local-greedy traffic split vs optimal splittable routing";
  }
  std::unique_ptr<analyzer::GapEvaluator> make_evaluator() const override;
  std::unique_ptr<analyzer::HeuristicAnalyzer> make_analyzer(
      std::uint64_t seed_salt = 0) const override;
  const flowgraph::FlowNetwork& network() const override { return pnet_.net; }
  explain::FlowOracle make_oracle() const override;
  std::map<std::string, double> features() const override;
  double gap_scale() const override { return inst_.d_max; }

  const te::TeInstance& instance() const { return inst_; }

 private:
  te::TeInstance inst_;
  double rate_quantum_;
  te::PathNetwork pnet_;
};

}  // namespace xplain::cases
