// Walkthrough: the WCMP load-balancing case — the fourth registered
// heuristic domain — end to end.
//
//   1. build a scenario (fat-tree(4)) and a WCMP instance over it: te's
//      path-flow instance with the core tier skewed;
//   2. run the WCMP local-greedy split at one input and compare it with
//      the optimal splittable routing (the model-layer benchmark);
//   3. run the full XPlain pipeline through the CaseRegistry entry and
//      print the Type-1 subspaces + the hottest Type-2 edges.
#include <algorithm>
#include <iostream>
#include <vector>

#include "lb/optimal.h"
#include "lb/wcmp.h"
#include "scenario/scenario.h"
#include "util/table.h"
#include "xplain/pipeline.h"

using namespace xplain;

int main() {
  // --- 1. Scenario -> instance. ---
  scenario::ScenarioSpec spec;
  spec.kind = scenario::TopologyKind::kFatTree;
  spec.size = 4;
  spec.capacity = 100.0;
  spec.seed = 3;
  te::TeInstance inst = scenario::make_te_instance(
      spec, /*num_pairs=*/8, /*k_paths=*/3, /*d_max=*/100.0);
  inst.skew_top_tier(/*lo=*/0.25, /*hi=*/1.0);
  std::cout << "scenario " << spec.name() << ": " << inst.topo.num_nodes()
            << " switches, " << inst.topo.num_links() << " directed links, "
            << inst.num_pairs() << " commodities, input dim "
            << inst.input_dim() << " (rates + capacity skew)\n\n";

  // --- 2. One point: WCMP vs optimal. ---
  // Every commodity at full rate, core uplinks squeezed to 30% — the
  // regime the pipeline below localizes as adversarial.
  std::vector<double> x(inst.input_dim(), inst.d_max);
  if (inst.has_skew_dim()) x.back() = 0.3;
  auto heur = lb::wcmp_split(inst, x);
  auto opt = lb::solve_lb_optimal(inst, x);
  std::cout << "WCMP routes " << heur.total << " of "
            << inst.d_max * inst.num_pairs()
            << " offered; optimal routes " << opt.total << " (gap "
            << opt.total - heur.total << ")\n\n";

  // --- 3. Full pipeline via the registry. ---
  auto c = registry().find("wcmp");
  if (!c) {
    std::cerr << "wcmp case not registered\n";
    return 1;
  }
  PipelineOptions opts;
  opts.min_gap = 20.0;
  opts.subspace.max_subspaces = 2;
  opts.explain.samples = 400;
  auto result = run_pipeline(*c, opts);

  std::cout << "pipeline found " << result.subspaces.size()
            << " adversarial subspace(s); best analyzer gap "
            << result.best_gap_found << "\n";
  const auto names = c->dim_names();
  for (std::size_t i = 0; i < result.subspaces.size(); ++i) {
    const auto& sub = result.subspaces[i];
    std::cout << "\nsubspace " << i << " (seed gap " << sub.seed_gap
              << ", mean inside " << sub.mean_gap_inside << ", p = "
              << sub.p_value << "):\n"
              << sub.region.to_string(names) << "\n";
    // Top Type-2 edges: where does only the optimal route?
    const auto& ex = result.explanations[i];
    std::vector<int> order(ex.edges.size());
    for (std::size_t e = 0; e < order.size(); ++e) order[e] = static_cast<int>(e);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return ex.edges[a].heat > ex.edges[b].heat;
    });
    util::Table t({"edge", "heat", "benchmark-only", "heuristic-only"});
    for (int r = 0; r < 5 && r < static_cast<int>(order.size()); ++r) {
      const auto& e = ex.edges[order[r]];
      t.add_row({c->network().edge(flowgraph::EdgeId{order[r]}).name,
                 util::format_double(e.heat), std::to_string(e.benchmark_only),
                 std::to_string(e.heuristic_only)});
    }
    t.print(std::cout);
  }
  return 0;
}
