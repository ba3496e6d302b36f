// Tests for the load-balancing domain: instance plumbing (skew dimension),
// the WCMP local-greedy split, the model-layer optimal routing (LP and
// path-limited MILP), and WCMP-vs-optimal exactness on instances where the
// heuristic is provably optimal.
#include <gtest/gtest.h>

#include "analyzer/evaluator.h"
#include "lb/network.h"
#include "lb/optimal.h"
#include "lb/wcmp.h"
#include "scenario/scenario.h"
#include "util/random.h"

using namespace xplain;
using namespace xplain::lb;

namespace {

/// Two commodities with fully disjoint single paths: WCMP routes each on
/// its only path up to capacity, which is exactly what the optimal does.
LbInstance disjoint_instance() {
  te::Topology t(6);
  t.add_bidi(0, 1, 100);  // path of commodity A
  t.add_bidi(2, 3, 100);  // path of commodity B
  t.add_bidi(4, 5, 100);  // unused
  return LbInstance::make(std::move(t), {{0, 1}, {2, 3}}, /*k_paths=*/2,
                          /*t_max=*/150.0);
}

/// The canonical WCMP failure, hand-built: commodity A (1->2) has the
/// shared link 1-2 plus a private detour 1-3-2; commodity B (0->2) can
/// only go through the shared link.  A's proportional split wastes half
/// of the shared link although its detour could carry everything, so B
/// drops traffic the optimal routes.
LbInstance contended_instance() {
  te::Topology t(4);
  t.add_bidi(0, 1, 100);
  t.add_bidi(1, 2, 100);  // the shared link
  t.add_bidi(1, 3, 100);
  t.add_bidi(3, 2, 100);  // A's private detour
  LbInstance inst;
  inst.topo = std::move(t);
  inst.t_max = 100.0;
  LbCommodity a;
  a.src = 1;
  a.dst = 2;
  a.paths = {te::Path{{1, 2}}, te::Path{{1, 3, 2}}};
  LbCommodity b;
  b.src = 0;
  b.dst = 2;
  b.paths = {te::Path{{0, 1, 2}}};  // no alternative
  inst.commodities = {a, b};
  return inst;
}

}  // namespace

TEST(LbInstance, MakeComputesPathsAndDropsUnreachable) {
  te::Topology t(4);
  t.add_bidi(0, 1, 10);
  t.add_bidi(1, 2, 10);
  // Node 3 is isolated: the 0~>3 commodity must be dropped.
  auto inst = LbInstance::make(std::move(t), {{0, 2}, {0, 3}}, 3, 50.0);
  ASSERT_EQ(inst.num_commodities(), 1);
  EXPECT_EQ(inst.commodities[0].dst, 2);
  EXPECT_FALSE(inst.has_skew_dim());
  EXPECT_EQ(inst.input_dim(), 1);
}

TEST(LbInstance, SkewDimensionAndEffectiveCapacities) {
  te::Topology t(3);
  t.add_bidi(0, 1, 100);
  t.add_bidi(1, 2, 200);  // top tier
  auto inst = LbInstance::make(std::move(t), {{0, 2}}, 2, 50.0);
  inst.skew_top_tier(0.5, 1.0);
  ASSERT_TRUE(inst.has_skew_dim());
  EXPECT_EQ(inst.input_dim(), 2);
  // Only the 200-capacity links are marked.
  const auto caps = inst.effective_capacities(0.5);
  for (int l = 0; l < inst.topo.num_links(); ++l) {
    const double base = inst.topo.link(te::LinkId{l}).capacity;
    EXPECT_DOUBLE_EQ(caps[l], base == 200.0 ? 100.0 : base);
  }
  EXPECT_DOUBLE_EQ(inst.skew_of({25.0, 0.75}), 0.75);
}

TEST(Wcmp, RoutesEverythingOnDisjointPaths) {
  auto inst = disjoint_instance();
  const std::vector<double> x{80.0, 120.0};
  auto res = wcmp_split(inst, x);
  EXPECT_NEAR(res.total, 180.0, 1e-9);
  EXPECT_NEAR(res.unmet[0], 0.0, 1e-9);
  EXPECT_NEAR(res.unmet[1], 20.0, 1e-9);  // 120 offered on a 100 link
}

TEST(Wcmp, NeverExceedsCapacitiesProperty) {
  scenario::ScenarioSpec spec;
  spec.kind = scenario::TopologyKind::kFatTree;
  spec.size = 4;
  auto inst = scenario::make_lb_instance(spec, 8, 3, 100.0, 0.25, 1.0);
  util::Rng rng(5);
  analyzer::Box box;
  box.lo.assign(inst.input_dim(), 0.0);
  box.hi.assign(inst.input_dim(), inst.t_max);
  box.lo.back() = inst.skew_lo;
  box.hi.back() = inst.skew_hi;
  for (int it = 0; it < 30; ++it) {
    const auto x = rng.uniform_point(box.lo, box.hi);
    const auto res = wcmp_split(inst, x);
    const auto caps = inst.effective_capacities(inst.skew_of(x));
    for (std::size_t l = 0; l < caps.size(); ++l)
      EXPECT_LE(res.link_load[l], caps[l] + 1e-6) << "link " << l;
  }
}

TEST(Wcmp, TotalOverResolvedPathLinksIsBitwiseSplitTotal) {
  // lb_gap_cached's WCMP side reads link ids resolved once per solver;
  // it must reproduce wcmp_split's total bit for bit, on generated fabrics
  // and WANs and on a hand-built instance alike.
  std::vector<LbInstance> instances;
  scenario::ScenarioSpec spec;
  spec.kind = scenario::TopologyKind::kFatTree;
  spec.size = 4;
  instances.push_back(scenario::make_lb_instance(spec, 8, 3, 100.0, 0.25, 1.0));
  spec.kind = scenario::TopologyKind::kWaxman;
  spec.size = 10;
  for (std::uint64_t seed : {1u, 7u, 12u}) {
    spec.seed = seed;
    instances.push_back(
        scenario::make_lb_instance(spec, 8, 3, 100.0, 0.25, 1.0));
  }
  instances.push_back(contended_instance());
  util::Rng rng(31);
  int zero_demand = 0, saturated = 0;
  for (const LbInstance& inst : instances) {
    const LbOptimalSolver solver(inst);
    const te::PathLinks& links = solver.path_links();
    std::vector<double> lo(inst.input_dim(), 0.0);
    std::vector<double> hi(inst.input_dim(), inst.t_max);
    if (inst.has_skew_dim()) {
      lo.back() = inst.skew_lo;
      hi.back() = inst.skew_hi;
    }
    for (int it = 0; it < 80; ++it) {
      std::vector<double> x = rng.uniform_point(lo, hi);
      // Zero-demand commodities, and full-rate ones that saturate links
      // so later commodities find no headroom at all.
      for (int k = 0; k < inst.num_commodities(); ++k) {
        const double u = rng.uniform(0.0, 1.0);
        if (u < 0.2) x[k] = 0.0;
        else if (u < 0.5) x[k] = inst.t_max;
      }
      const WcmpResult split = wcmp_split(inst, x);
      EXPECT_EQ(wcmp_total(inst, links, x), split.total) << "it " << it;
      for (int k = 0; k < inst.num_commodities(); ++k) {
        if (x[k] == 0.0) ++zero_demand;
        if (x[k] > 0.0 && split.unmet[k] == x[k]) ++saturated;
      }
    }
  }
  EXPECT_GT(zero_demand, 0);
  EXPECT_GT(saturated, 0);  // the no-headroom branch was exercised
}

TEST(LbOptimal, MatchesWcmpOnProvablyOptimalInstances) {
  // Disjoint single paths: WCMP is exactly optimal, so the gap is 0 across
  // the whole input box (the WCMP-vs-MILP exactness check).
  auto inst = disjoint_instance();
  util::Rng rng(7);
  for (int it = 0; it < 40; ++it) {
    std::vector<double> x(2);
    for (auto& v : x) v = rng.uniform(0.0, inst.t_max);
    const auto heur = wcmp_split(inst, x);
    const auto opt = solve_lb_optimal(inst, x);
    ASSERT_TRUE(opt.feasible);
    EXPECT_NEAR(heur.total, opt.total, 1e-6) << "at it " << it;
    EXPECT_NEAR(lb_gap(inst, x), 0.0, 1e-6);
  }
}

TEST(LbOptimal, GapIsNonNegativeProperty) {
  auto inst = contended_instance();
  util::Rng rng(9);
  for (int it = 0; it < 40; ++it) {
    std::vector<double> x(inst.input_dim());
    for (auto& v : x) v = rng.uniform(0.0, inst.t_max);
    EXPECT_GE(lb_gap(inst, x), -1e-6);
  }
}

TEST(LbOptimal, ContentionProducesAPositiveGap) {
  // At full rates: A splits 50/50 across its two equal-headroom paths,
  // leaving B only 50 on the shared link; the optimal sends A entirely on
  // the detour and routes everything.  WCMP 150 vs OPT 200.
  auto inst = contended_instance();
  std::vector<double> x(inst.input_dim(), inst.t_max);
  const auto heur = wcmp_split(inst, x);
  const auto opt = solve_lb_optimal(inst, x);
  EXPECT_NEAR(heur.total, 150.0, 1e-6);
  EXPECT_NEAR(opt.total, 200.0, 1e-6);
  EXPECT_NEAR(lb_gap(inst, x), 50.0, 1e-6);
}

TEST(LbOptimalSolver, MatchesModelLayerSolveAndIsPure) {
  // The warm-started structure cache must agree with the model-layer
  // encoding everywhere, and history must not change its answers (the
  // property the per-thread evaluator cache relies on).
  scenario::ScenarioSpec spec;
  spec.kind = scenario::TopologyKind::kFatTree;
  spec.size = 4;
  auto inst = scenario::make_lb_instance(spec, 6, 3, 100.0, 0.25, 1.0);
  LbOptimalSolver cached(inst), fresh(inst);
  util::Rng rng(13);
  analyzer::Box box;
  box.lo.assign(inst.input_dim(), 0.0);
  box.hi.assign(inst.input_dim(), inst.t_max);
  box.lo.back() = inst.skew_lo;
  box.hi.back() = inst.skew_hi;
  for (int it = 0; it < 25; ++it) {
    const auto x = rng.uniform_point(box.lo, box.hi);
    const auto reference = solve_lb_optimal(inst, x);
    ASSERT_TRUE(reference.feasible);
    EXPECT_NEAR(cached.solve_total(x), reference.total, 1e-6) << "it " << it;
    EXPECT_NEAR(lb_gap_cached(inst, x, cached), lb_gap(inst, x), 1e-6);
  }
  // Purity: a solver with different history answers bitwise identically.
  const std::vector<double> probe = rng.uniform_point(box.lo, box.hi);
  EXPECT_EQ(cached.solve_total(probe), fresh.solve_total(probe));
}

TEST(LbOptimal, PathLimitedMilpIsExactAndBounded) {
  auto inst = contended_instance();
  const std::vector<double> x{60.0, 60.0};
  const auto unrestricted = solve_lb_optimal(inst, x);
  LbOptimalOptions limited;
  limited.max_paths_per_commodity = 1;
  const auto restricted = solve_lb_optimal(inst, x, limited);
  ASSERT_TRUE(unrestricted.feasible);
  ASSERT_TRUE(restricted.feasible);
  // Restricting active paths can only lose routed traffic.
  EXPECT_LE(restricted.total, unrestricted.total + 1e-6);
  // Each commodity really uses at most one path.
  for (const auto& flows : restricted.flow) {
    int active = 0;
    for (double f : flows) active += f > 1e-6;
    EXPECT_LE(active, 1);
  }
}

TEST(LbNetwork, StructureAndFlowMapping) {
  auto inst = contended_instance();
  auto lbn = build_lb_network(inst);
  // Sinks (met/unmet) + link nodes + per-commodity source + path nodes.
  int paths = 0;
  for (const auto& c : inst.commodities) paths += static_cast<int>(c.paths.size());
  EXPECT_EQ(lbn.net.num_nodes(),
            2 + inst.topo.num_links() + inst.num_commodities() + paths);
  const auto problems = lbn.net.validate();
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems[0]);

  const std::vector<double> x{80.0, 40.0};
  const auto res = wcmp_split(inst, x);
  const auto flows = lb_network_flows(lbn, inst, x, res.flow);
  ASSERT_EQ(static_cast<int>(flows.size()), lbn.net.num_edges());
  // Unmet edges carry offered - routed.
  for (int k = 0; k < inst.num_commodities(); ++k)
    EXPECT_NEAR(flows[lbn.unmet_edges[k].v], res.unmet[k], 1e-9);
  // Link edges aggregate the per-path loads.
  for (int l = 0; l < inst.topo.num_links(); ++l)
    EXPECT_NEAR(flows[lbn.link_edges[l].v], res.link_load[l], 1e-9);
}
