// Tests for the traffic-engineering substrate: topologies, k-shortest
// paths, the path-flow instance and its capacity-skew dimension, optimal
// max-flow and its resident session, the Demand Pinning heuristic, and the
// agreement between DP's simulation and its DSL/MILP encoding (Fig. 1b vs
// Fig. 4a).
#include <gtest/gtest.h>

#include "flowgraph/compiler.h"
#include "scenario/scenario.h"
#include "te/demand_pinning.h"
#include "te/maxflow.h"
#include "util/random.h"

using namespace xplain::te;
namespace xs = xplain::solver;

TEST(Topology, Fig1aShape) {
  auto t = Topology::fig1a();
  EXPECT_EQ(t.num_nodes(), 5);
  EXPECT_EQ(t.num_links(), 10);  // 5 bidirectional links
  ASSERT_TRUE(t.find_link(0, 1).valid());
  EXPECT_DOUBLE_EQ(t.link(t.find_link(0, 1)).capacity, 100);
  EXPECT_DOUBLE_EQ(t.link(t.find_link(3, 4)).capacity, 50);
  EXPECT_EQ(t.link_name(t.find_link(0, 1)), "1-2");
}

TEST(Topology, GeneratorsProduceExpectedShapes) {
  EXPECT_EQ(Topology::line(4, 10).num_links(), 6);
  EXPECT_EQ(Topology::ring(5, 10).num_links(), 10);
  EXPECT_EQ(Topology::grid(3, 2, 10).num_nodes(), 6);
  EXPECT_EQ(Topology::grid(3, 2, 10).num_links(), 2 * 7);
  xplain::util::Rng rng(1);
  auto t = Topology::random_connected(8, 0.2, 5, 20, rng);
  EXPECT_EQ(t.num_nodes(), 8);
  EXPECT_GE(t.num_links(), 2 * 7);  // at least the spanning tree
}

TEST(Paths, ShortestOnFig1a) {
  auto t = Topology::fig1a();
  Path p = shortest_path(t, 0, 2);  // 1 ~> 3
  EXPECT_EQ(p.name(), "1-2-3");
  EXPECT_EQ(p.hops(), 2);
}

TEST(Paths, KShortestOnFig1a) {
  auto t = Topology::fig1a();
  auto ps = k_shortest_paths(t, 0, 2, 3);
  ASSERT_GE(ps.size(), 2u);
  EXPECT_EQ(ps[0].name(), "1-2-3");
  EXPECT_EQ(ps[1].name(), "1-4-5-3");  // the paper's alternate path
  // Non-decreasing hop counts.
  for (std::size_t i = 1; i < ps.size(); ++i)
    EXPECT_GE(ps[i].hops(), ps[i - 1].hops());
}

TEST(Paths, UnreachableReturnsEmpty) {
  Topology t(3);
  t.add_link(0, 1, 10);  // no path to node 2
  EXPECT_TRUE(shortest_path(t, 0, 2).empty());
  EXPECT_TRUE(k_shortest_paths(t, 0, 2, 3).empty());
}

TEST(Paths, BottleneckCapacity) {
  auto t = Topology::fig1a();
  auto ps = k_shortest_paths(t, 0, 2, 2);
  EXPECT_DOUBLE_EQ(bottleneck_capacity(t, ps[0]), 100);
  EXPECT_DOUBLE_EQ(bottleneck_capacity(t, ps[1]), 50);
}

TEST(Paths, KShortestAreSimpleAndDistinct) {
  xplain::util::Rng rng(7);
  auto t = Topology::random_connected(9, 0.3, 1, 10, rng);
  auto ps = k_shortest_paths(t, 0, 8, 5);
  for (std::size_t a = 0; a < ps.size(); ++a) {
    // Simple: no repeated nodes.
    std::set<int> seen(ps[a].nodes.begin(), ps[a].nodes.end());
    EXPECT_EQ(seen.size(), ps[a].nodes.size());
    // Valid: every hop is a real link.
    for (LinkId l : ps[a].links(t)) EXPECT_TRUE(l.valid());
    for (std::size_t b = a + 1; b < ps.size(); ++b)
      EXPECT_FALSE(ps[a] == ps[b]);
  }
}

// ---------------------------------------------------------------------------
// Instances and the capacity-skew dimension.
// ---------------------------------------------------------------------------

TEST(TeInstance, MakeComputesPathsAndDropsUnreachable) {
  Topology t(4);
  t.add_bidi(0, 1, 10);
  t.add_bidi(1, 2, 10);
  // Node 3 is isolated: the 0~>3 pair must be dropped.
  auto inst = TeInstance::make(std::move(t), {{0, 2}, {0, 3}}, 3, 50.0);
  ASSERT_EQ(inst.num_pairs(), 1);
  EXPECT_EQ(inst.pairs[0].dst, 2);
  EXPECT_FALSE(inst.has_skew_dim());
  EXPECT_EQ(inst.input_dim(), 1);
}

TEST(TeInstance, SkewDimensionAndEffectiveCapacities) {
  Topology t(3);
  t.add_bidi(0, 1, 100);
  t.add_bidi(1, 2, 200);  // top tier
  auto inst = TeInstance::make(std::move(t), {{0, 2}}, 2, 50.0);
  inst.skew_top_tier(0.5, 1.0);
  ASSERT_TRUE(inst.has_skew_dim());
  EXPECT_EQ(inst.input_dim(), 2);
  // Only the 200-capacity links are marked.
  const auto caps = inst.effective_capacities(0.5);
  for (int l = 0; l < inst.topo.num_links(); ++l) {
    const double base = inst.topo.link(LinkId{l}).capacity;
    EXPECT_DOUBLE_EQ(caps[l], base == 200.0 ? 100.0 : base);
  }
  EXPECT_DOUBLE_EQ(inst.skew_of({25.0, 0.75}), 0.75);
}

// ---------------------------------------------------------------------------
// Fig. 1a numbers: OPT routes 250, DP routes 150 at threshold 50.
// ---------------------------------------------------------------------------

TEST(MaxFlow, Fig1aOptimalIs250) {
  auto inst = TeInstance::fig1a_example();
  std::vector<double> d = {50, 100, 100};  // 1~>3, 1~>2, 2~>3
  auto r = solve_max_flow(inst, d);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.total, 250.0, 1e-6);
  // OPT sends the 1~>3 demand around the detour (paper's table).
  EXPECT_NEAR(r.flow[0][1], 50.0, 1e-6);
}

TEST(MaxFlow, RespectsLinkCapacities) {
  auto inst = TeInstance::fig1a_example();
  std::vector<double> d = {100, 100, 100};
  auto r = solve_max_flow(inst, d);
  ASSERT_TRUE(r.feasible);
  auto util = r.link_utilization(inst);
  for (int l = 0; l < inst.topo.num_links(); ++l)
    EXPECT_LE(util[l], inst.topo.link(LinkId{l}).capacity + 1e-6);
}

TEST(DemandPinning, Fig1aRoutes150) {
  auto inst = TeInstance::fig1a_example();
  DpConfig cfg{50.0};
  std::vector<double> d = {50, 100, 100};
  auto r = run_demand_pinning(inst, cfg, d);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.total, 150.0, 1e-6);
  EXPECT_TRUE(r.pinned[0]);   // 1~>3 at 50 <= T
  EXPECT_FALSE(r.pinned[1]);
  EXPECT_FALSE(r.pinned[2]);
  // Pinned demand occupies the shortest path 1-2-3.
  EXPECT_NEAR(r.flow[0][0], 50.0, 1e-6);
}

TEST(DemandPinning, Fig1aGapIs100) {
  auto inst = TeInstance::fig1a_example();
  EXPECT_NEAR(dp_gap(inst, DpConfig{50.0}, {50, 100, 100}), 100.0, 1e-6);
}

TEST(DemandPinning, NoPinningWhenAllLarge) {
  auto inst = TeInstance::fig1a_example();
  DpConfig cfg{50.0};
  std::vector<double> d = {60, 100, 100};
  auto r = run_demand_pinning(inst, cfg, d);
  ASSERT_TRUE(r.feasible);
  // Nothing pinned: DP == OPT.
  auto opt = solve_max_flow(inst, d);
  EXPECT_NEAR(r.total, opt.total, 1e-6);
  EXPECT_NEAR(dp_gap(inst, cfg, d), 0.0, 1e-6);
}

TEST(DemandPinning, GapIsNonNegativeProperty) {
  auto inst = TeInstance::fig1a_example();
  DpConfig cfg{50.0};
  xplain::util::Rng rng(11);
  for (int it = 0; it < 50; ++it) {
    std::vector<double> d(3);
    for (auto& v : d) v = rng.uniform(0, 100);
    EXPECT_GE(dp_gap(inst, cfg, d), -1e-6);
  }
}

TEST(MaxFlowSolver, MatchesDirectSolveAcrossDemandsResidualsSkips) {
  // The warm-started structure cache must be a drop-in for solve_max_flow
  // under every (d, residual, skip) combination dp_gap exercises.
  auto inst = TeInstance::fig1a_example();
  MaxFlowSolver mf(inst);
  xplain::util::Rng rng(17);
  for (int it = 0; it < 60; ++it) {
    std::vector<double> d(3);
    for (auto& v : d) v = rng.uniform(0, 100);
    std::vector<double> residual(inst.topo.num_links());
    for (int l = 0; l < inst.topo.num_links(); ++l)
      residual[l] = rng.uniform(0.2, 1.0) * inst.topo.link(LinkId{l}).capacity;
    std::vector<bool> skip(3);
    for (int k = 0; k < 3; ++k) skip[k] = rng.bernoulli(0.3);

    const auto direct = solve_max_flow(inst, d);
    const auto cached = mf.solve(d);
    ASSERT_EQ(direct.feasible, cached.feasible);
    EXPECT_NEAR(direct.total, cached.total, 1e-6);

    const auto direct_r = solve_max_flow(inst, d, &residual, &skip);
    const auto cached_r = mf.solve(d, &residual, &skip);
    ASSERT_EQ(direct_r.feasible, cached_r.feasible);
    EXPECT_NEAR(direct_r.total, cached_r.total, 1e-6);
    // Skipped pairs must carry no flow in the cached formulation.
    for (int k = 0; k < 3; ++k) {
      if (!skip[k]) continue;
      for (double f : cached_r.flow[k]) EXPECT_NEAR(f, 0.0, 1e-9);
    }
  }
}

TEST(MaxFlowSolver, DpGapAgreesWithUncachedPath) {
  auto inst = TeInstance::fig1a_example();
  DpConfig cfg{50.0};
  MaxFlowSolver mf(inst);
  xplain::util::Rng rng(23);
  for (int it = 0; it < 50; ++it) {
    std::vector<double> d(3);
    for (auto& v : d) v = rng.uniform(0, 100);
    EXPECT_NEAR(dp_gap(inst, cfg, d), dp_gap(inst, cfg, d, &mf), 1e-6);
  }
}

TEST(MaxFlowSolver, SolveIsAPureFunctionOfItsArguments) {
  // The fixed reference basis means call history cannot change results —
  // the property the per-thread evaluator caches rely on for bitwise
  // parallel determinism.
  auto inst = TeInstance::fig1a_example();
  MaxFlowSolver a(inst), b(inst);
  std::vector<double> d1{90, 80, 70}, d2{10, 95, 40};
  // Drive `a` through extra history before the comparison solves.
  for (int it = 0; it < 5; ++it) a.solve({5.0 * it, 100.0 - it, 50.0});
  const auto ra = a.solve(d1);
  const auto rb = b.solve(d1);
  EXPECT_EQ(ra.total, rb.total);  // bitwise
  EXPECT_EQ(ra.flow, rb.flow);
  const auto ra2 = a.solve(d2);
  const auto rb2 = b.solve(d2);
  EXPECT_EQ(ra2.total, rb2.total);
  EXPECT_EQ(ra2.flow, rb2.flow);
  // dp_gap's total-only OPT solve is the same solve, bitwise.
  const auto ta = a.solve_total(d1);
  ASSERT_TRUE(ta.has_value());
  EXPECT_EQ(*ta, ra.total);
}

TEST(DemandPinning, PinnedOverloadIsInfeasible) {
  // Two parallel demands pinned onto one tiny link exceed its capacity.
  Topology t(2);
  t.add_link(0, 1, 10);
  auto inst = TeInstance::make(t, {{0, 1}, {0, 1}}, 1, 100);
  DpConfig cfg{50.0};
  auto r = run_demand_pinning(inst, cfg, {8, 8});  // 16 > 10 pinned
  EXPECT_FALSE(r.feasible);
  EXPECT_NEAR(dp_gap(inst, cfg, {8, 8}), 0.0, 1e-9);  // excluded point
  // The same verdict through a solver's resolved path links.
  MaxFlowSolver mf(inst);
  EXPECT_FALSE(run_demand_pinning(inst, cfg, {8, 8}, &mf).feasible);
  EXPECT_TRUE(run_demand_pinning(inst, cfg, {4, 5}, &mf).feasible);
}

TEST(MaxFlowSolver, PathLinksAreEveryPairsPathsInOrder) {
  auto inst = TeInstance::all_pairs(Topology::grid(3, 3, 10.0), 3, 100.0);
  MaxFlowSolver mf(inst);
  const PathLinks& links = mf.path_links();
  int path = 0;  // running index over every pair's paths
  for (int k = 0; k < inst.num_pairs(); ++k)
    for (std::size_t p = 0; p < inst.pairs[k].paths.size(); ++p, ++path) {
      std::vector<int> expected;
      for (LinkId l : inst.pairs[k].paths[p].links(inst.topo))
        expected.push_back(l.v);
      const std::vector<int> got(links.ids.begin() + links.start[path],
                                 links.ids.begin() + links.start[path + 1]);
      EXPECT_EQ(got, expected) << "pair " << k << " path " << p;
    }
  EXPECT_EQ(static_cast<int>(links.start.size()), path + 1);
}

namespace {

/// The WCMP case's shape on fat-tree(4): 8 pairs, 3 candidate paths, the
/// core uplinks skewed over [0.25, 1].
TeInstance skewed_fat_tree4() {
  xplain::scenario::ScenarioSpec spec;
  spec.kind = xplain::scenario::TopologyKind::kFatTree;
  spec.size = 4;
  TeInstance inst = xplain::scenario::make_te_instance(spec, 8, 3, 100.0);
  inst.skew_top_tier(0.25, 1.0);
  return inst;
}

}  // namespace

TEST(MaxFlowSolver, SkewedReferenceRhsIsTheInputBoxCenter) {
  // The reference basis is pinned at the center of the input box: demands
  // at d_max / 2, capacities at the skew range's midpoint.
  const TeInstance inst = skewed_fat_tree4();
  ASSERT_TRUE(inst.has_skew_dim());
  const MaxFlowSolver mf(inst);
  const xs::LpProblem& lp = mf.problem();
  ASSERT_EQ(lp.num_rows(), inst.num_pairs() + inst.topo.num_links());
  for (int k = 0; k < inst.num_pairs(); ++k)
    EXPECT_EQ(lp.row(k).rhs, inst.d_max / 2) << "pair " << k;
  const std::vector<double> caps =
      inst.effective_capacities((inst.skew_lo + inst.skew_hi) / 2);
  int squeezed = 0;
  for (int l = 0; l < inst.topo.num_links(); ++l) {
    EXPECT_EQ(lp.row(inst.num_pairs() + l).rhs, caps[l]) << "link " << l;
    squeezed += caps[l] < inst.topo.link(LinkId{l}).capacity;
  }
  EXPECT_GT(squeezed, 0);
}

TEST(MaxFlowSolver, SkewedSolveTotalIsSolveAtEffectiveCapacities) {
  const TeInstance inst = skewed_fat_tree4();
  MaxFlowSolver mf(inst);
  xplain::util::Rng rng(41);
  std::vector<double> lo(inst.input_dim(), 0.0);
  std::vector<double> hi(inst.input_dim(), inst.d_max);
  lo.back() = inst.skew_lo;
  hi.back() = inst.skew_hi;
  for (int it = 0; it < 50; ++it) {
    const std::vector<double> x = rng.uniform_point(lo, hi);
    const std::vector<double> d(x.begin(), x.begin() + inst.num_pairs());
    const std::vector<double> caps =
        inst.effective_capacities(inst.skew_of(x));
    const auto total = mf.solve_total(x);
    const FlowResult full = mf.solve(d, &caps);
    ASSERT_TRUE(total.has_value());
    ASSERT_TRUE(full.feasible);
    EXPECT_EQ(*total, full.total) << "it " << it;  // bitwise
  }
}

// ---------------------------------------------------------------------------
// DSL face: the Fig. 4a network agrees with the direct formulations.
// ---------------------------------------------------------------------------

TEST(PathNetwork, StructureMatchesFig4a) {
  auto inst = TeInstance::fig1a_example();
  auto dp = build_path_network(inst, "demand_pinning");
  EXPECT_EQ(dp.net.name(), "demand_pinning");
  EXPECT_TRUE(dp.net.validate().empty());
  EXPECT_EQ(dp.net.input_sources().size(), 3u);
  // 3 demand sources + paths + 10 links + met/unmet sinks.
  EXPECT_EQ(static_cast<int>(dp.demand_nodes.size()), inst.num_pairs());
  for (int k = 0; k < inst.num_pairs(); ++k)
    EXPECT_EQ(dp.path_edges[k].size(), inst.pairs[k].paths.size());
}

TEST(PathNetwork, OptimalViaDslMatchesDirectLp) {
  auto inst = TeInstance::fig1a_example();
  auto dp = build_path_network(inst, "demand_pinning");
  xplain::util::Rng rng(5);
  for (int it = 0; it < 5; ++it) {
    std::vector<double> d(3);
    for (auto& v : d) v = rng.uniform(0, 100);
    auto c = xplain::flowgraph::compile(dp.net);
    fix_demands(c, dp, d);
    auto s = c.model.solve();  // min unmet (pure LP: no binaries)
    ASSERT_EQ(s.status, xs::Status::kOptimal);
    auto opt = solve_max_flow(inst, d);
    const double total_demand = d[0] + d[1] + d[2];
    EXPECT_NEAR(s.obj, total_demand - opt.total, 1e-5) << "iter " << it;
  }
}

TEST(PathNetwork, PinningRuleMatchesSimulation) {
  auto inst = TeInstance::fig1a_example();
  auto dp = build_path_network(inst, "demand_pinning");
  DpConfig cfg{50.0};
  xplain::model::HelperConfig hcfg;
  hcfg.big_m = 1000;
  hcfg.eps = 0.5;
  xplain::util::Rng rng(6);
  for (int it = 0; it < 5; ++it) {
    std::vector<double> d(3);
    // Integer demands keep us off the indicator's eps boundary.
    for (auto& v : d) v = rng.uniform_int(0, 100);
    auto sim = run_demand_pinning(inst, cfg, d);
    if (!sim.feasible) continue;
    auto c = xplain::flowgraph::compile(dp.net);
    auto pinned = add_pinning_rule(c, dp, cfg, hcfg);
    fix_demands(c, dp, d);
    auto s = c.model.solve();
    ASSERT_EQ(s.status, xs::Status::kOptimal) << "iter " << it;
    const double total_demand = d[0] + d[1] + d[2];
    EXPECT_NEAR(total_demand - s.obj, sim.total, 1e-4)
        << "iter " << it << " d=" << d[0] << "," << d[1] << "," << d[2];
    for (int k = 0; k < 3; ++k)
      EXPECT_NEAR(s.x[pinned[k].index], sim.pinned[k] ? 1 : 0, 1e-6);
  }
}

TEST(PathNetwork, FlowMappingIsConsistent) {
  auto inst = TeInstance::fig1a_example();
  auto dp = build_path_network(inst, "demand_pinning");
  std::vector<double> d = {50, 100, 100};
  auto sim = run_demand_pinning(inst, DpConfig{50.0}, d);
  auto flows = path_network_flows(dp, inst, d, sim.flow);
  ASSERT_EQ(static_cast<int>(flows.size()), dp.net.num_edges());
  // Pinned 1~>3 flow appears on its shortest-path demand edge.
  EXPECT_NEAR(flows[dp.path_edges[0][0].v], 50.0, 1e-9);
  // Unmet accounting: total demand - routed == sum of unmet edges.
  double unmet = 0;
  for (auto e : dp.unmet_edges) unmet += flows[e.v];
  EXPECT_NEAR(unmet, (d[0] + d[1] + d[2]) - sim.total, 1e-6);
}
