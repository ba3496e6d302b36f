// E5 — Fig. 4a: the Type-2 heatmap for Demand Pinning over 3000 subspace
// samples (the paper's sample count).
//
// Expected shape: the pinnable demand's shortest-path edge (1~>3 via
// 1-2-3) is red (heuristic-only), the detour edge (via 1-4-5-3) is blue
// (benchmark-only).
#include <fstream>
#include <iostream>

#include "cases/dp_case.h"
#include "explain/heatmap.h"
#include "util/timer.h"
#include "xplain/pipeline.h"
#include "bench_json.h"

int main() {
  xplain::tools::BenchReport bench_report("fig4a_dp_explain");
  using namespace xplain;
  auto inst = te::TeInstance::fig1a_example();
  te::DpConfig cfg{50.0};
  auto dp = te::build_path_network(inst, "demand_pinning");
  cases::DpGapEvaluator eval(inst, cfg);
  auto oracle = cases::make_dp_oracle(dp, inst, cfg);

  // The adversarial subspace around the paper's example (found by the
  // pipeline; pinned here for reproducibility of the figure).
  subspace::Polytope region;
  region.box.lo = {30, 95, 95};
  region.box.hi = {50, 100, 100};

  explain::ExplainOptions opts;
  opts.samples = 3000;  // the paper's count
  opts.flow_eps = 20.0; // meaningful-flow threshold (see EXPERIMENTS.md)
  util::Timer timer;
  auto ex = explain::explain_subspace(eval, region, dp.net, oracle, opts);

  std::cout << "E5 / Fig. 4a — DP Type-2 heatmap (" << ex.samples_used
            << " samples, " << timer.seconds() << "s)\n\n";
  explain::print_heatmap(std::cout, dp.net, ex);

  const double heat_sp = ex.edges[dp.path_edges[0][0].v].heat;
  const double heat_detour = ex.edges[dp.path_edges[0][1].v].heat;
  std::cout << "\n1~>3 via 1-2-3   heat = " << heat_sp
            << "  (paper: intense red — heuristic only)\n";
  std::cout << "1~>3 via 1-4-5-3 heat = " << heat_detour
            << "  (paper: intense blue — optimal only)\n";

  std::ofstream dot("fig4a_heatmap.dot");
  dot << explain::heatmap_dot(dp.net, ex);
  explain::write_heatmap_csv("fig4a_heatmap.csv", dp.net, ex);
  std::cout << "(wrote fig4a_heatmap.dot / fig4a_heatmap.csv)\n";

  const bool ok = heat_sp < -0.5 && heat_detour > 0.5;
  std::cout << (ok ? "[REPRODUCED]" : "[MISMATCH]") << "\n";
  return ok ? 0 : 1;
}
