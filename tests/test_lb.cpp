// Tests for the load-balancing case: the WCMP local-greedy split, the
// model-layer optimal routing, WCMP-vs-optimal exactness on instances where
// the heuristic is provably optimal, the WCMP gap on te's max-flow session,
// the Fig. 4a network's WCMP flow mapping, and one thread's solver slot
// shared by the DP and WCMP evaluators.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <optional>

#include "analyzer/evaluator.h"
#include "lb/optimal.h"
#include "lb/wcmp.h"
#include "scenario/scenario.h"
#include "util/random.h"
#include "xplain/case.h"

using namespace xplain;
using namespace xplain::lb;
using te::TeInstance;

namespace {

/// The WCMP case's instance shape over `spec`: `n` commodities with up to
/// `k` candidate paths, rates in [0, d_max], top capacity tier skewed over
/// [lo, hi].
TeInstance skewed_instance(const scenario::ScenarioSpec& spec, int n, int k,
                           double d_max, double lo, double hi) {
  TeInstance inst = scenario::make_te_instance(spec, n, k, d_max);
  inst.skew_top_tier(lo, hi);
  return inst;
}

/// The instance's analyzer input box: rates, then the skew range.
analyzer::Box input_box(const TeInstance& inst) {
  analyzer::Box box;
  box.lo.assign(inst.input_dim(), 0.0);
  box.hi.assign(inst.input_dim(), inst.d_max);
  if (inst.has_skew_dim()) {
    box.lo.back() = inst.skew_lo;
    box.hi.back() = inst.skew_hi;
  }
  return box;
}

/// Two commodities with fully disjoint single paths: WCMP routes each on
/// its only path up to capacity, which is exactly what the optimal does.
TeInstance disjoint_instance() {
  te::Topology t(6);
  t.add_bidi(0, 1, 100);  // path of commodity A
  t.add_bidi(2, 3, 100);  // path of commodity B
  t.add_bidi(4, 5, 100);  // unused
  return TeInstance::make(std::move(t), {{0, 1}, {2, 3}}, /*k_paths=*/2,
                          /*d_max=*/150.0);
}

/// The canonical WCMP failure, hand-built: commodity A (1->2) has the
/// shared link 1-2 plus a private detour 1-3-2; commodity B (0->2) can
/// only go through the shared link.  A's proportional split wastes half
/// of the shared link although its detour could carry everything, so B
/// drops traffic the optimal routes.
TeInstance contended_instance() {
  te::Topology t(4);
  t.add_bidi(0, 1, 100);
  t.add_bidi(1, 2, 100);  // the shared link
  t.add_bidi(1, 3, 100);
  t.add_bidi(3, 2, 100);  // A's private detour
  TeInstance inst;
  inst.topo = std::move(t);
  inst.d_max = 100.0;
  te::TePair a;
  a.src = 1;
  a.dst = 2;
  a.paths = {te::Path{{1, 2}}, te::Path{{1, 3, 2}}};
  te::TePair b;
  b.src = 0;
  b.dst = 2;
  b.paths = {te::Path{{0, 1, 2}}};  // no alternative
  inst.pairs = {a, b};
  return inst;
}

}  // namespace

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
  const TeInstance inst = skewed_instance(spec, 8, 3, 100.0, 0.25, 1.0);
  util::Rng rng(5);
  const analyzer::Box box = input_box(inst);
  for (int it = 0; it < 30; ++it) {
    const auto x = rng.uniform_point(box.lo, box.hi);
    const auto res = wcmp_split(inst, x);
    const auto caps = inst.effective_capacities(inst.skew_of(x));
    for (std::size_t l = 0; l < caps.size(); ++l)
      EXPECT_LE(res.link_load[l], caps[l] + 1e-6) << "link " << l;
  }
}

TEST(Wcmp, TotalOverResolvedPathLinksIsBitwiseSplitTotal) {
  // lb_gap's WCMP side reads the link ids its solver resolved once; it
  // must reproduce wcmp_split's total bit for bit, on generated fabrics
  // and WANs and on a hand-built instance alike.
  std::vector<TeInstance> instances;
  scenario::ScenarioSpec spec;
  spec.kind = scenario::TopologyKind::kFatTree;
  spec.size = 4;
  instances.push_back(skewed_instance(spec, 8, 3, 100.0, 0.25, 1.0));
  spec.kind = scenario::TopologyKind::kWaxman;
  spec.size = 10;
  for (std::uint64_t seed : {1u, 7u, 12u}) {
    spec.seed = seed;
    instances.push_back(skewed_instance(spec, 8, 3, 100.0, 0.25, 1.0));
  }
  instances.push_back(contended_instance());
  util::Rng rng(31);
  int zero_demand = 0, saturated = 0;
  for (const TeInstance& inst : instances) {
    const te::MaxFlowSolver solver(inst);
    const te::PathLinks& links = solver.path_links();
    const analyzer::Box box = input_box(inst);
    for (int it = 0; it < 80; ++it) {
      std::vector<double> x = rng.uniform_point(box.lo, box.hi);
      // Zero-demand commodities, and full-rate ones that saturate links
      // so later commodities find no headroom at all.
      for (int k = 0; k < inst.num_pairs(); ++k) {
        const double u = rng.uniform(0.0, 1.0);
        if (u < 0.2) x[k] = 0.0;
        else if (u < 0.5) x[k] = inst.d_max;
      }
      const WcmpResult split = wcmp_split(inst, x);
      EXPECT_EQ(wcmp_total(inst, links, x), split.total) << "it " << it;
      for (int k = 0; k < inst.num_pairs(); ++k) {
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
  // the whole input box (the WCMP-vs-optimal exactness check).
  auto inst = disjoint_instance();
  util::Rng rng(7);
  for (int it = 0; it < 40; ++it) {
    std::vector<double> x(2);
    for (auto& v : x) v = rng.uniform(0.0, inst.d_max);
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
    for (auto& v : x) v = rng.uniform(0.0, inst.d_max);
    EXPECT_GE(lb_gap(inst, x), -1e-6);
  }
}

TEST(LbOptimal, ContentionProducesAPositiveGap) {
  // At full rates: A splits 50/50 across its two equal-headroom paths,
  // leaving B only 50 on the shared link; the optimal sends A entirely on
  // the detour and routes everything.  WCMP 150 vs OPT 200.
  auto inst = contended_instance();
  std::vector<double> x(inst.input_dim(), inst.d_max);
  const auto heur = wcmp_split(inst, x);
  const auto opt = solve_lb_optimal(inst, x);
  EXPECT_NEAR(heur.total, 150.0, 1e-6);
  EXPECT_NEAR(opt.total, 200.0, 1e-6);
  EXPECT_NEAR(lb_gap(inst, x), 50.0, 1e-6);
}

TEST(LbGap, SolverPathMatchesOneShotAndIsPure) {
  // The gap on te's resident max-flow session must agree with the
  // model-layer encoding everywhere, and history must not change its
  // answers (the property the per-thread solver slot relies on).
  scenario::ScenarioSpec spec;
  spec.kind = scenario::TopologyKind::kFatTree;
  spec.size = 4;
  const TeInstance inst = skewed_instance(spec, 6, 3, 100.0, 0.25, 1.0);
  te::MaxFlowSolver cached(inst), fresh(inst);
  util::Rng rng(13);
  const analyzer::Box box = input_box(inst);
  for (int it = 0; it < 25; ++it) {
    const auto x = rng.uniform_point(box.lo, box.hi);
    const auto reference = solve_lb_optimal(inst, x);
    ASSERT_TRUE(reference.feasible);
    const std::optional<double> total = cached.solve_total(x);
    ASSERT_TRUE(total.has_value());
    EXPECT_NEAR(*total, reference.total, 1e-6) << "it " << it;
    EXPECT_NEAR(lb_gap(inst, x, &cached), lb_gap(inst, x), 1e-6);
  }
  // Purity: a solver with different history answers bitwise identically.
  const std::vector<double> probe = rng.uniform_point(box.lo, box.hi);
  EXPECT_EQ(cached.solve_total(probe), fresh.solve_total(probe));
}

TEST(PathNetwork, WcmpStructureAndFlowMapping) {
  const TeInstance inst = contended_instance();
  const te::PathNetwork pn = te::build_path_network(inst, "wcmp_load_balancing");
  EXPECT_EQ(pn.net.name(), "wcmp_load_balancing");
  // Sinks (met/unmet) + link nodes + per-commodity source + path nodes.
  int paths = 0;
  for (const auto& p : inst.pairs) paths += static_cast<int>(p.paths.size());
  EXPECT_EQ(pn.net.num_nodes(),
            2 + inst.topo.num_links() + inst.num_pairs() + paths);
  const auto problems = pn.net.validate();
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems[0]);

  const std::vector<double> x{80.0, 40.0};
  const auto res = wcmp_split(inst, x);
  const auto flows = te::path_network_flows(pn, inst, x, res.flow);
  ASSERT_EQ(static_cast<int>(flows.size()), pn.net.num_edges());
  // Unmet edges carry offered - routed.
  for (int k = 0; k < inst.num_pairs(); ++k)
    EXPECT_NEAR(flows[pn.unmet_edges[k].v], res.unmet[k], 1e-9);
  // Link edges aggregate the per-path loads.
  for (int l = 0; l < inst.topo.num_links(); ++l)
    EXPECT_NEAR(flows[pn.link_edges[l].v], res.link_load[l], 1e-9);
}

TEST(ThreadMaxFlowSolver, OneThreadServesBothCasesBitwise) {
  // One thread interleaves gap() calls of a demand_pinning evaluator and
  // two wcmp evaluators on different scenarios, so every call switches the
  // thread's one solver slot to another instance.  Each value must equal,
  // bitwise, what a freshly built evaluator of the same case returns.
  scenario::ScenarioSpec ft4;
  ft4.kind = scenario::TopologyKind::kFatTree;
  ft4.size = 4;
  scenario::ScenarioSpec wan;
  wan.kind = scenario::TopologyKind::kWaxman;
  wan.size = 8;
  wan.seed = 5;
  const std::shared_ptr<const HeuristicCase> cases[] = {
      registry().create("demand_pinning", ft4), registry().create("wcmp", ft4),
      registry().create("wcmp", wan)};
  std::vector<std::unique_ptr<analyzer::GapEvaluator>> evals;
  std::vector<std::vector<std::vector<double>>> points;
  util::Rng rng(77);
  for (const auto& c : cases) {
    ASSERT_NE(c, nullptr);
    evals.push_back(c->make_evaluator());
    const analyzer::Box box = evals.back()->input_box();
    points.emplace_back();
    for (int i = 0; i < 12; ++i)
      points.back().push_back(rng.uniform_point(box.lo, box.hi));
  }
  std::vector<std::vector<double>> interleaved(std::size(cases));
  for (int i = 0; i < 12; ++i)
    for (std::size_t c = 0; c < std::size(cases); ++c)
      interleaved[c].push_back(evals[c]->gap(points[c][i]));
  int positive = 0;
  for (std::size_t c = 0; c < std::size(cases); ++c)
    for (int i = 0; i < 12; ++i) {
      const double fresh = cases[c]->make_evaluator()->gap(points[c][i]);
      EXPECT_EQ(interleaved[c][i], fresh) << "case " << c << " point " << i;
      positive += fresh > 0.0;
    }
  EXPECT_GT(positive, 0);  // the points reach the heuristics' weak spots
}
