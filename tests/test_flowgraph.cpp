// Tests for the XPlain DSL: node behaviors (App. A semantics), metadata,
// the compiler, redundancy elimination, the Theorem A.1 encoder, and DOT
// rendering.
#include <gtest/gtest.h>

#include <cmath>

#include "flowgraph/compiler.h"
#include "flowgraph/dot.h"
#include "flowgraph/encode_lp.h"
#include "flowgraph/network.h"
#include "flowgraph/optimize.h"
#include "util/random.h"

using namespace xplain::flowgraph;
namespace xs = xplain::solver;

namespace {

// Solves a compiled network and returns (status, objective, edge flows).
struct Solved {
  xs::Status status;
  double obj;
  std::vector<double> flows;
  std::vector<double> x;
};

Solved solve_net(const FlowNetwork& net) {
  auto c = compile(net);
  auto r = c.model.solve();
  Solved s;
  s.status = r.status;
  s.obj = r.obj;
  if (r.status == xs::Status::kOptimal) {
    s.flows = c.flows(r.x);
    s.x = r.x;
  }
  return s;
}

}  // namespace

TEST(Network, ValidationCatchesBadMultiply) {
  FlowNetwork net;
  auto a = net.add_node("a", NodeKind::kSource);
  auto m = net.add_node("m", NodeKind::kMultiply);
  auto s = net.add_node("s", NodeKind::kSink);
  net.add_edge(a, m);
  net.add_edge(a, m);  // second incoming: invalid
  net.add_edge(m, s);
  auto errs = net.validate();
  ASSERT_FALSE(errs.empty());
  EXPECT_NE(errs[0].find("multiply"), std::string::npos);
}

TEST(Network, ValidationCatchesSinkWithOutgoing) {
  FlowNetwork net;
  auto s = net.add_node("s", NodeKind::kSink);
  auto t = net.add_node("t", NodeKind::kSink);
  net.add_edge(s, t);
  EXPECT_FALSE(net.validate().empty());
}

TEST(Compiler, SplitConservesAndRespectsCapacity) {
  // source(10) -> split -> two edges (cap 3 and 100) -> sink; max inflow.
  FlowNetwork net;
  auto src = net.add_node("src", NodeKind::kSource);
  net.set_injection_range(src, 0, 10);
  auto sp = net.add_node("sp", NodeKind::kSplit);
  auto snk = net.add_node("snk", NodeKind::kSink);
  net.add_edge(src, sp);
  auto e1 = net.add_edge(sp, snk, "narrow");
  net.set_capacity(e1, 3);
  auto e2 = net.add_edge(sp, snk, "wide");
  net.set_capacity(e2, 100);
  net.set_objective(snk, true);
  auto s = solve_net(net);
  ASSERT_EQ(s.status, xs::Status::kOptimal);
  EXPECT_NEAR(s.obj, 10.0, 1e-7);
  EXPECT_LE(s.flows[e1.v], 3.0 + 1e-7);
}

TEST(Compiler, PickAllowsOnlyOneOutgoingEdge) {
  FlowNetwork net;
  auto src = net.add_node("src", NodeKind::kSource);
  net.set_source_behavior(src, NodeKind::kPick);
  net.set_injection_range(src, 0, 10);
  auto snk = net.add_node("snk", NodeKind::kSink);
  auto e1 = net.add_edge(src, snk, "a");
  net.set_capacity(e1, 4);
  auto e2 = net.add_edge(src, snk, "b");
  net.set_capacity(e2, 6);
  net.set_objective(snk, true);
  auto s = solve_net(net);
  ASSERT_EQ(s.status, xs::Status::kOptimal);
  // Best single edge carries 6; the other must be exactly zero.
  EXPECT_NEAR(s.obj, 6.0, 1e-6);
  EXPECT_NEAR(s.flows[e1.v], 0.0, 1e-6);
  EXPECT_NEAR(s.flows[e2.v], 6.0, 1e-6);
}

TEST(Compiler, MultiplyScalesFlow) {
  FlowNetwork net;
  auto src = net.add_node("src", NodeKind::kSource);
  net.set_injection_range(src, 0, 5);
  auto mul = net.add_node("x3", NodeKind::kMultiply);
  net.set_multiplier(mul, 3.0);
  auto snk = net.add_node("snk", NodeKind::kSink);
  net.add_edge(src, mul);
  net.add_edge(mul, snk);
  net.set_objective(snk, true);
  auto s = solve_net(net);
  ASSERT_EQ(s.status, xs::Status::kOptimal);
  EXPECT_NEAR(s.obj, 15.0, 1e-7);
}

TEST(Compiler, AllEqualForcesEquality) {
  // Two sources feed an all-equal node; flows must match the smaller range.
  FlowNetwork net;
  auto a = net.add_node("a", NodeKind::kSource);
  net.set_injection_range(a, 0, 10);
  auto b = net.add_node("b", NodeKind::kSource);
  net.set_injection_range(b, 0, 4);
  auto eq = net.add_node("eq", NodeKind::kAllEqual);
  auto snk = net.add_node("snk", NodeKind::kSink);
  net.add_edge(a, eq);
  net.add_edge(b, eq);
  auto out = net.add_edge(eq, snk);
  net.set_objective(snk, true);
  auto s = solve_net(net);
  ASSERT_EQ(s.status, xs::Status::kOptimal);
  EXPECT_NEAR(s.obj, 4.0, 1e-7);  // out edge equals both inputs
  EXPECT_NEAR(s.flows[out.v], 4.0, 1e-7);
}

TEST(Compiler, CopyDuplicatesInflow) {
  FlowNetwork net;
  auto src = net.add_node("src", NodeKind::kSource);
  net.set_injection_range(src, 0, 7);
  auto cp = net.add_node("cp", NodeKind::kCopy);
  auto s1 = net.add_node("s1", NodeKind::kSink);
  auto s2 = net.add_node("s2", NodeKind::kSink);
  net.add_edge(src, cp);
  auto o1 = net.add_edge(cp, s1);
  auto o2 = net.add_edge(cp, s2);
  net.set_objective(s1, true);
  auto s = solve_net(net);
  ASSERT_EQ(s.status, xs::Status::kOptimal);
  EXPECT_NEAR(s.flows[o1.v], 7.0, 1e-7);
  EXPECT_NEAR(s.flows[o2.v], 7.0, 1e-7);  // copy, not split
}

TEST(Compiler, CopyEqualsSplitPlusAllEq) {
  // Fig. 7: COPY == SPLIT -> ALL_EQUAL composition. Build both, compare.
  auto build = [](bool use_copy) {
    FlowNetwork net;
    auto a = net.add_node("a", NodeKind::kSource);
    net.set_injection_range(a, 0, 3);
    auto b = net.add_node("b", NodeKind::kSource);
    net.set_injection_range(b, 0, 2);
    auto snk = net.add_node("snk", NodeKind::kSink);
    auto other = net.add_node("other", NodeKind::kSink);
    if (use_copy) {
      auto cp = net.add_node("cp", NodeKind::kCopy);
      net.add_edge(a, cp);
      net.add_edge(b, cp);
      net.add_edge(cp, snk);
      net.add_edge(cp, other);
    } else {
      // Fig. 7: the split's single outgoing edge (carrying the full inflow)
      // enters an all-equal node whose outgoing edges are the copies.
      auto sp = net.add_node("sp", NodeKind::kSplit);
      auto eq = net.add_node("eq", NodeKind::kAllEqual);
      net.add_edge(a, sp);
      net.add_edge(b, sp);
      net.add_edge(sp, eq);
      net.add_edge(eq, snk);
      net.add_edge(eq, other);
    }
    net.set_objective(snk, true);
    return solve_net(net);
  };
  auto with_copy = build(true);
  auto with_split = build(false);
  ASSERT_EQ(with_copy.status, xs::Status::kOptimal);
  ASSERT_EQ(with_split.status, xs::Status::kOptimal);
  EXPECT_NEAR(with_copy.obj, with_split.obj, 1e-6);  // both: 5
  EXPECT_NEAR(with_copy.obj, 5.0, 1e-6);
}

TEST(Compiler, FixedEdgesAreRespected) {
  FlowNetwork net;
  auto src = net.add_node("src", NodeKind::kSource);
  net.set_injection_range(src, 0, 100);
  auto snk = net.add_node("snk", NodeKind::kSink);
  auto e = net.add_edge(src, snk);
  net.set_fixed(e, 42.0);
  net.set_objective(snk, true);
  auto s = solve_net(net);
  ASSERT_EQ(s.status, xs::Status::kOptimal);
  EXPECT_NEAR(s.obj, 42.0, 1e-7);
}

TEST(Compiler, MinimizeObjective) {
  FlowNetwork net;
  auto src = net.add_node("src", NodeKind::kSource);
  net.set_injection_range(src, 5, 10);  // at least 5 must flow
  auto snk = net.add_node("snk", NodeKind::kSink);
  net.add_edge(src, snk);
  net.set_objective(snk, false);
  auto s = solve_net(net);
  ASSERT_EQ(s.status, xs::Status::kOptimal);
  EXPECT_NEAR(s.obj, 5.0, 1e-7);
}

TEST(Network, MetadataRoundTrip) {
  FlowNetwork net("meta");
  auto d = net.add_node("d", NodeKind::kSource);
  net.set_injection_range(d, 0, 1);
  net.set_node_meta(d, "kind", "demand");
  auto t = net.add_node("t", NodeKind::kSink);
  auto e = net.add_edge(d, t);
  net.set_edge_meta(e, "path", "shortest");
  net.set_objective(t, true);
  EXPECT_TRUE(net.validate().empty());
  EXPECT_EQ(net.node(net.find_node("d")).metadata.at("kind"), "demand");
  EXPECT_EQ(net.edge(net.find_edge("d->t")).metadata.at("path"), "shortest");
}

// ---------------------------------------------------------------------------
// Redundancy elimination.
// ---------------------------------------------------------------------------

TEST(Optimize, ContractsPassThroughChains) {
  // src -> s1 -> s2 -> s3 -> sink: the three pass-through splits contract.
  FlowNetwork net;
  auto src = net.add_node("src", NodeKind::kSource);
  net.set_injection_range(src, 0, 5);
  NodeId prev = src;
  for (int i = 0; i < 3; ++i) {
    auto n = net.add_node("s" + std::to_string(i), NodeKind::kSplit);
    net.add_edge(prev, n);
    prev = n;
  }
  auto snk = net.add_node("snk", NodeKind::kSink);
  auto last = net.add_edge(prev, snk);
  net.set_capacity(last, 4);
  net.set_objective(snk, true);

  auto opt = optimize(net);
  EXPECT_EQ(opt.contracted_nodes, 3);
  EXPECT_EQ(opt.net.num_edges(), 1);
  // Same optimum before and after.
  EXPECT_NEAR(solve_net(net).obj, solve_net(opt.net).obj, 1e-7);
  EXPECT_NEAR(solve_net(opt.net).obj, 4.0, 1e-7);
  // Every original edge maps to the surviving one.
  for (int e = 0; e < net.num_edges(); ++e) EXPECT_EQ(opt.edge_map[e], 0);
}

TEST(Optimize, RemovesDeadEdges) {
  FlowNetwork net;
  auto src = net.add_node("src", NodeKind::kSource);
  net.set_injection_range(src, 0, 5);
  auto snk = net.add_node("snk", NodeKind::kSink);
  net.add_edge(src, snk, "live");
  auto dead = net.add_edge(src, snk, "dead");
  net.set_capacity(dead, 0.0);
  net.set_objective(snk, true);
  auto opt = optimize(net);
  EXPECT_EQ(opt.removed_edges, 1);
  EXPECT_EQ(opt.edge_map[dead.v], -1);
  EXPECT_NEAR(solve_net(opt.net).obj, 5.0, 1e-7);
}

TEST(Optimize, DanglingConservingNodeForcesZero) {
  // src -> split -> (sink, dead-end split): the dead-end branch is pruned.
  FlowNetwork net;
  auto src = net.add_node("src", NodeKind::kSource);
  net.set_injection_range(src, 0, 5);
  auto sp = net.add_node("sp", NodeKind::kSplit);
  auto dead = net.add_node("dead", NodeKind::kSplit);
  auto snk = net.add_node("snk", NodeKind::kSink);
  net.add_edge(src, sp);
  net.add_edge(sp, snk);
  net.add_edge(sp, dead);  // nowhere to go from `dead`
  net.set_objective(snk, true);
  auto opt = optimize(net);
  EXPECT_NEAR(solve_net(net).obj, solve_net(opt.net).obj, 1e-7);
  EXPECT_GE(opt.removed_edges, 1);
}

TEST(Optimize, PreservesObjectiveOnRandomNetworks) {
  // Property: optimization never changes the optimum on random layered
  // split networks.
  for (int seed = 0; seed < 12; ++seed) {
    xplain::util::Rng rng(900 + seed);
    FlowNetwork net;
    auto src = net.add_node("src", NodeKind::kSource);
    net.set_injection_range(src, 0, rng.uniform(5, 20));
    const int layers = rng.uniform_int(1, 3);
    std::vector<NodeId> prev = {src};
    for (int l = 0; l < layers; ++l) {
      const int width = rng.uniform_int(1, 3);
      std::vector<NodeId> cur;
      for (int wdt = 0; wdt < width; ++wdt)
        cur.push_back(net.add_node("n" + std::to_string(l) + "_" +
                                       std::to_string(wdt),
                                   NodeKind::kSplit));
      for (NodeId a : prev) {
        bool connected = false;
        for (NodeId b : cur) {
          if (rng.bernoulli(0.8)) {
            auto e = net.add_edge(a, b);
            if (rng.bernoulli(0.5)) net.set_capacity(e, rng.uniform(1, 15));
            connected = true;
          }
        }
        if (!connected) net.add_edge(a, cur[0]);  // keep the source legal
      }
      prev = cur;
    }
    auto snk = net.add_node("snk", NodeKind::kSink);
    for (NodeId a : prev) net.add_edge(a, snk);
    net.set_objective(snk, true);
    auto base = solve_net(net);
    auto opt = optimize(net);
    auto after = solve_net(opt.net);
    ASSERT_EQ(base.status, after.status) << "seed " << seed;
    if (base.status == xs::Status::kOptimal)
      EXPECT_NEAR(base.obj, after.obj, 1e-6) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Theorem A.1 encoder: encode random LPs/MILPs into the DSL, compile, solve,
// and compare with solving the original directly.
// ---------------------------------------------------------------------------

namespace {

double solve_encoded(const xs::LpProblem& p) {
  auto enc = encode_lp(p);
  auto compiled = compile(enc.net);
  auto r = compiled.model.solve();
  EXPECT_EQ(r.status, xs::Status::kOptimal);
  return enc.recover_objective(r.obj);
}

}  // namespace

TEST(ThmA1, EncodesSimpleLp) {
  // max 3x + 5y, x<=4, 2y<=12, 3x+2y<=18 (optimum 36).
  xs::LpProblem p;
  p.sense = xs::Sense::kMaximize;
  int x = p.add_col(0, 10, 3, false, "x");
  int y = p.add_col(0, 10, 5, false, "y");
  p.add_row({{x, 1}}, xs::RowSense::kLe, 4);
  p.add_row({{y, 2}}, xs::RowSense::kLe, 12);
  p.add_row({{x, 3}, {y, 2}}, xs::RowSense::kLe, 18);
  EXPECT_NEAR(solve_encoded(p), 36.0, 1e-5);
}

TEST(ThmA1, EncodesMinimization) {
  // min 2x + 3y, x + y >= 10 (x,y <= 20): optimum 20 at x=10.
  xs::LpProblem p;
  p.sense = xs::Sense::kMinimize;
  int x = p.add_col(0, 20, 2, false, "x");
  int y = p.add_col(0, 20, 3, false, "y");
  p.add_row({{x, 1}, {y, 1}}, xs::RowSense::kGe, 10);
  EXPECT_NEAR(solve_encoded(p), 20.0, 1e-5);
}

TEST(ThmA1, EncodesNegativeCoefficientsAndShiftedBounds) {
  // max x - y with -3 <= x <= 5, 1 <= y <= 4, x - y <= 2: optimum 2.
  xs::LpProblem p;
  p.sense = xs::Sense::kMaximize;
  int x = p.add_col(-3, 5, 1, false, "x");
  int y = p.add_col(1, 4, -1, false, "y");
  p.add_row({{x, 1}, {y, -1}}, xs::RowSense::kLe, 2);
  EXPECT_NEAR(solve_encoded(p), 2.0, 1e-5);
}

TEST(ThmA1, EncodesEqualityRows) {
  // max x + y, x + y = 3, x <= 2: optimum 3.
  xs::LpProblem p;
  p.sense = xs::Sense::kMaximize;
  int x = p.add_col(0, 2, 1, false, "x");
  int y = p.add_col(0, 10, 1, false, "y");
  p.add_row({{x, 1}, {y, 1}}, xs::RowSense::kEq, 3);
  EXPECT_NEAR(solve_encoded(p), 3.0, 1e-5);
}

TEST(ThmA1, EncodesBinaries) {
  // Knapsack: max 10a + 13b + 7c, 3a + 4b + 2c <= 6 (optimum 20).
  xs::LpProblem p;
  p.sense = xs::Sense::kMaximize;
  int a = p.add_col(0, 1, 10, true, "a");
  int b = p.add_col(0, 1, 13, true, "b");
  int c = p.add_col(0, 1, 7, true, "c");
  p.add_row({{a, 3}, {b, 4}, {c, 2}}, xs::RowSense::kLe, 6);
  EXPECT_NEAR(solve_encoded(p), 20.0, 1e-5);
}

TEST(ThmA1, RejectsInfiniteBounds) {
  xs::LpProblem p;
  p.add_col(0, xs::kInf, 1, false, "x");
  EXPECT_THROW(encode_lp(p), std::invalid_argument);
  xs::LpProblem q;
  q.add_col(-xs::kInf, 3, 1, false, "x");
  EXPECT_THROW(encode_lp(q), std::invalid_argument);
}

class ThmA1Random : public ::testing::TestWithParam<int> {};

TEST_P(ThmA1Random, MatchesDirectSolve) {
  xplain::util::Rng rng(4200 + GetParam());
  const int n = rng.uniform_int(2, 4);
  const int nb = rng.uniform_int(0, 2);
  xs::LpProblem p;
  p.sense = rng.bernoulli(0.5) ? xs::Sense::kMaximize : xs::Sense::kMinimize;
  for (int j = 0; j < n; ++j)
    p.add_col(0, rng.uniform(1, 6), rng.uniform(-3, 5), false);
  for (int j = 0; j < nb; ++j) p.add_col(0, 1, rng.uniform(-4, 6), true);
  const int m = rng.uniform_int(1, 3);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> coef;
    for (int j = 0; j < n + nb; ++j) {
      if (rng.bernoulli(0.7)) coef.emplace_back(j, rng.uniform(-2, 3));
    }
    if (coef.empty()) coef.emplace_back(0, 1.0);
    // Keep feasible: rhs no smaller than value at origin (= 0) for <=.
    p.add_row(std::move(coef), xs::RowSense::kLe, rng.uniform(0.5, 10));
  }
  auto direct = xs::solve_milp(p);
  ASSERT_EQ(direct.status, xs::Status::kOptimal);
  EXPECT_NEAR(solve_encoded(p), direct.obj,
              1e-4 * (1 + std::abs(direct.obj)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ThmA1Random, ::testing::Range(0, 20));

TEST(Dot, RendersHeatAndStructure) {
  FlowNetwork net("dotdemo");
  auto d = net.add_node("d", NodeKind::kSource);
  net.set_injection_range(d, 0, 1);
  auto t = net.add_node("t", NodeKind::kSink);
  net.set_capacity(net.add_edge(d, t), 5);
  net.set_objective(t, true);
  std::vector<double> heat{-0.8};
  DotOptions opts;
  opts.edge_heat = &heat;
  const std::string dot = to_dot(net, opts);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("cap 5"), std::string::npos);
  EXPECT_NE(dot.find("color="), std::string::npos);
  EXPECT_NE(dot.find("invtriangle"), std::string::npos);  // source shape
}
