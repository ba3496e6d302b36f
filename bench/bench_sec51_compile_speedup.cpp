// E8 — §5.1 inline claim: "compared to the original MetaOpt implementation,
// the compiled DSL analyzes our DP example 4.3x faster" — the DSL finds
// redundant constraints and variables that hand-written low-level models
// carry around (§4's "auxiliary variable" style).
//
// Setup: the DP network for a chain-with-detour WAN, written the way
// mechanical hand-translation produces it — every demand->path edge spliced
// through a chain of pass-through auxiliary nodes (one per rewrite step).
// We compare the per-solve time of
//   (a) the naive compilation of that padded network, vs
//   (b) the compilation after the DSL's redundancy-elimination pass
// on the benchmark-analysis solve (min unmet demand) that XPlain's
// sampling loops execute thousands of times.  Both models are built once,
// outside the timed region, and verified to agree.
#include <benchmark/benchmark.h>

#include <iostream>

#include "flowgraph/optimize.h"
#include "generalize/instance_generator.h"
#include "te/demand_pinning.h"
#include "util/csv.h"
#include "util/timer.h"
#include "bench_json.h"

namespace {

using namespace xplain;
using namespace xplain::flowgraph;

constexpr int kPadDepth = 10;

struct PaddedDp {
  FlowNetwork net;
  std::vector<NodeId> demand_nodes;
};

// build_path_network with hand-translation noise: each demand->path edge runs
// through kPadDepth pass-through split nodes (all contractible).
PaddedDp build_padded(const te::TeInstance& inst) {
  PaddedDp out;
  FlowNetwork& net = out.net;
  net = FlowNetwork("dp_padded");
  NodeId met = net.add_node("met", NodeKind::kSink);
  NodeId unmet = net.add_node("unmet", NodeKind::kSink);
  std::vector<NodeId> link_nodes(inst.topo.num_links());
  for (int l = 0; l < inst.topo.num_links(); ++l) {
    link_nodes[l] = net.add_node("link" + std::to_string(l), NodeKind::kSplit);
    EdgeId e = net.add_edge(link_nodes[l], met);
    net.set_capacity(e, inst.topo.link(te::LinkId{l}).capacity);
  }
  for (int k = 0; k < inst.num_pairs(); ++k) {
    NodeId src = net.add_node("demand" + std::to_string(k), NodeKind::kSource);
    net.set_injection_range(src, 0, inst.d_max, true);
    out.demand_nodes.push_back(src);
    for (std::size_t p = 0; p < inst.pairs[k].paths.size(); ++p) {
      NodeId pn = net.add_node(
          "path" + std::to_string(k) + "_" + std::to_string(p),
          NodeKind::kCopy);
      NodeId prev = src;
      for (int d = 0; d < kPadDepth; ++d) {  // the auxiliary chain
        NodeId aux = net.add_node("aux" + std::to_string(k) + "_" +
                                      std::to_string(p) + "_" +
                                      std::to_string(d),
                                  NodeKind::kSplit);
        net.add_edge(prev, aux);
        prev = aux;
      }
      net.add_edge(prev, pn);
      for (te::LinkId l : inst.pairs[k].paths[p].links(inst.topo))
        net.add_edge(pn, link_nodes[l.v]);
    }
    net.add_edge(src, unmet);
  }
  net.set_objective(unmet, /*maximize=*/false);
  return out;
}

const te::TeInstance& instance() {
  static te::TeInstance inst = [] {
    generalize::DpFamilyParams params;
    params.chain_len = 3;
    return generalize::make_dp_family_instance(params);
  }();
  return inst;
}

CompiledNetwork prepare(const FlowNetwork& net, const te::TeInstance& inst) {
  auto c = compile(net);
  // Fix demands to the adversarial pattern (pinned small + saturating).
  for (int k = 0; k < inst.num_pairs(); ++k) {
    NodeId src = net.find_node("demand" + std::to_string(k));
    const double v = (k == 0) ? 50.0 : 100.0;
    c.model.lp().set_bounds(c.injection[src.v].index, v, v);
  }
  return c;
}

void BM_HandWrittenModel(benchmark::State& state) {
  auto padded = build_padded(instance());
  auto c = prepare(padded.net, instance());
  for (auto _ : state) benchmark::DoNotOptimize(c.model.solve_lp().obj);
}
BENCHMARK(BM_HandWrittenModel);

void BM_CompiledDslModel(benchmark::State& state) {
  auto padded = build_padded(instance());
  auto opt = optimize(padded.net);  // once, at compile time — not timed here
  auto c = prepare(opt.net, instance());
  for (auto _ : state) benchmark::DoNotOptimize(c.model.solve_lp().obj);
}
BENCHMARK(BM_CompiledDslModel);

}  // namespace

int main(int argc, char** argv) {
  xplain::tools::BenchReport bench_report("sec51_compile_speedup");
  std::cout << "E8 / §5.1 — compiled-DSL redundancy elimination\n\n";
  auto padded = build_padded(instance());
  auto opt = optimize(padded.net);
  auto naive = prepare(padded.net, instance());
  auto slim = prepare(opt.net, instance());
  std::cout << "model size: " << padded.net.num_edges() << " edges / "
            << naive.model.num_constraints() << " rows  ->  "
            << opt.net.num_edges() << " edges / "
            << slim.model.num_constraints() << " rows ("
            << opt.contracted_nodes << " auxiliary nodes contracted)\n";
  const double a = naive.model.solve_lp().obj;
  const double b = slim.model.solve_lp().obj;
  std::cout << "objective agreement: " << a << " vs " << b
            << (std::abs(a - b) < 1e-6 ? "  [OK]" : "  [BAD]") << "\n";

  // Manual timing for the verdict (google-benchmark output follows).
  auto time_solves = [](const flowgraph::CompiledNetwork& c) {
    util::Timer t;
    int reps = 0;
    while (t.seconds() < 0.5) {
      benchmark::DoNotOptimize(c.model.solve_lp().obj);
      ++reps;
    }
    return t.seconds() / reps;
  };
  const double t_naive = time_solves(naive);
  const double t_slim = time_solves(slim);
  const double speedup = t_naive / t_slim;
  std::cout << "per-solve: hand-written " << t_naive * 1e6
            << "us, compiled DSL " << t_slim * 1e6 << "us  ->  speedup "
            << util::format_double(speedup) << "x (paper: 4.3x on their "
            << "MetaOpt/Gurobi stack)\n";
  std::cout << (speedup > 1.5 && std::abs(a - b) < 1e-6 ? "[REPRODUCED]"
                                                        : "[MISMATCH]")
            << "\n\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return speedup > 1.5 ? 0 : 1;
}
