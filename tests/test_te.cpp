// Tests for the traffic-engineering substrate: topologies, k-shortest
// paths, optimal max-flow, the Demand Pinning heuristic, and the agreement
// between DP's simulation and its DSL/MILP encoding (Fig. 1b vs Fig. 4a).
#include <gtest/gtest.h>

#include "flowgraph/compiler.h"
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
}

// ---------------------------------------------------------------------------
// DSL face: the Fig. 4a network agrees with the direct formulations.
// ---------------------------------------------------------------------------

TEST(DpNetwork, StructureMatchesFig4a) {
  auto inst = TeInstance::fig1a_example();
  auto dp = build_dp_network(inst);
  EXPECT_TRUE(dp.net.validate().empty());
  EXPECT_EQ(dp.net.input_sources().size(), 3u);
  // 3 demand sources + paths + 10 links + met/unmet sinks.
  EXPECT_EQ(static_cast<int>(dp.demand_nodes.size()), inst.num_pairs());
  for (int k = 0; k < inst.num_pairs(); ++k)
    EXPECT_EQ(dp.path_edges[k].size(), inst.pairs[k].paths.size());
}

TEST(DpNetwork, OptimalViaDslMatchesDirectLp) {
  auto inst = TeInstance::fig1a_example();
  auto dp = build_dp_network(inst);
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

TEST(DpNetwork, PinningRuleMatchesSimulation) {
  auto inst = TeInstance::fig1a_example();
  auto dp = build_dp_network(inst);
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

TEST(DpNetwork, FlowMappingIsConsistent) {
  auto inst = TeInstance::fig1a_example();
  auto dp = build_dp_network(inst);
  std::vector<double> d = {50, 100, 100};
  auto sim = run_demand_pinning(inst, DpConfig{50.0}, d);
  auto flows = dp_network_flows(dp, inst, d, sim.flow);
  ASSERT_EQ(static_cast<int>(flows.size()), dp.net.num_edges());
  // Pinned 1~>3 flow appears on its shortest-path demand edge.
  EXPECT_NEAR(flows[dp.path_edges[0][0].v], 50.0, 1e-9);
  // Unmet accounting: total demand - routed == sum of unmet edges.
  double unmet = 0;
  for (auto e : dp.unmet_edges) unmet += flows[e.v];
  EXPECT_NEAR(unmet, (d[0] + d[1] + d[2]) - sim.total, 1e-6);
}
