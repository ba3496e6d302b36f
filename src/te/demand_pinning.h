// Demand Pinning (DP), the paper's first running example (§2, Fig. 1).
//
// DP routes every demand at or below a threshold entirely on its shortest
// path ("pins" it), then routes the remaining demands optimally on the
// residual capacity.  Two faces of the heuristic live here:
//   * an executable simulation (used by the search analyzer, the subspace
//     sampler, and the explainer — thousands of evaluations per run);
//   * the pinning rule appended onto the compiled Fig. 4a network
//     (te/demand.h's PathNetwork), which is the Fig. 1b MetaOpt encoding
//     (ForceToZeroIfLeq + MaxFlow).
#pragma once

#include <vector>

#include "flowgraph/compiler.h"
#include "model/helpers.h"
#include "te/demand.h"
#include "te/maxflow.h"

namespace xplain::te {

struct DpConfig {
  double threshold = 50.0;  // T_d in Fig. 1b
};

struct DpResult {
  /// False when pinned demands alone violate a link capacity (MetaOpt's DP
  /// model treats such inputs as infeasible for the heuristic).
  bool feasible = false;
  double total = 0.0;
  std::vector<bool> pinned;               // per pair
  std::vector<std::vector<double>> flow;  // flow[k][p]
};

/// Runs the DP heuristic on demand vector `d`.  `mf`, when non-null, is a
/// prebuilt MaxFlowSolver for `inst` used for the residual solve (the
/// sampling hot loops keep one per thread, thread_max_flow_solver, instead
/// of rebuilding the LP every call).
DpResult run_demand_pinning(const TeInstance& inst, const DpConfig& cfg,
                            const std::vector<double>& d,
                            MaxFlowSolver* mf = nullptr);

/// OPT total minus DP total (>= 0 whenever DP is feasible); 0 when DP is
/// infeasible on `d` (such points are excluded, matching MetaOpt).  `mf` as
/// in run_demand_pinning (the same solver serves both embedded max-flows).
double dp_gap(const TeInstance& inst, const DpConfig& cfg,
              const std::vector<double>& d, MaxFlowSolver* mf = nullptr);

// --- DSL face (Fig. 1b on the Fig. 4a network). ---

/// Appends the DP pinning rule (Fig. 1b) to a compiled Fig. 4a network:
/// for every pair k, ForceToZeroIfLeq(d_k - f_shortest, d_k, T) plus
/// "pinned demands use only the shortest path".  Returns the per-pair
/// pinned-indicator variables.
std::vector<model::Var> add_pinning_rule(flowgraph::CompiledNetwork& c,
                                         const PathNetwork& pn,
                                         const DpConfig& cfg,
                                         const model::HelperConfig& hcfg = {});

/// Fixes the network's input injections to a concrete demand vector.
void fix_demands(flowgraph::CompiledNetwork& c, const PathNetwork& pn,
                 const std::vector<double>& d);

}  // namespace xplain::te
