// Tests for the VBP substrate: heuristics, exact optimal packing, and the
// agreement between the FF simulation and its Fig. 1c MILP encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <numeric>

#include "flowgraph/compiler.h"
#include "util/random.h"
#include "vbp/ff_model.h"
#include "vbp/heuristics.h"
#include "vbp/optimal.h"

using namespace xplain::vbp;
namespace xs = xplain::solver;

// Counts every global operator new in this test binary, so a test can
// assert that a stretch of code makes no heap allocation.  Every
// unaligned new and delete form is replaced, so an allocation from one
// family is never freed by the other (ASan checks that pairing).
namespace {
std::atomic<long> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {
VbpInstance small(int balls, int bins) {
  VbpInstance inst;
  inst.num_balls = balls;
  inst.num_bins = bins;
  inst.dims = 1;
  inst.capacity = 1.0;
  return inst;
}

constexpr VbpHeuristic kAllHeuristics[] = {
    VbpHeuristic::kFirstFit, VbpHeuristic::kBestFit,
    VbpHeuristic::kFirstFitDecreasing, VbpHeuristic::kNextFit};

// Seeded sizes for `inst` drawn to hit the loops' edge cases: ties, zero
// sizes, sizes of exactly the capacity, and sizes outside [0, capacity]
// (which vbp_gap clamps).
std::vector<double> edge_sizes(const VbpInstance& inst, xplain::util::Rng& rng) {
  const double cap = inst.capacity;
  std::vector<double> y(inst.input_dim());
  for (double& v : y) {
    switch (rng.uniform_int(0, 6)) {
      case 0: v = 0.0; break;
      case 1: v = cap; break;
      case 2: v = rng.uniform(-0.5, 0.0) * cap; break;
      case 3: v = rng.uniform(1.0, 1.5) * cap; break;
      case 4: v = rng.uniform_int(1, 4) * 0.25 * cap; break;  // ties
      default: v = rng.uniform(0.0, 1.0) * cap; break;
    }
  }
  return y;
}

std::vector<double> clamped(const VbpInstance& inst, std::vector<double> y) {
  for (double& v : y) v = std::clamp(v, 0.0, inst.capacity);
  return y;
}
}  // namespace

TEST(Heuristics, PaperSection2Example) {
  // Ball sizes 1%, 49%, 51%, 51% with 3 unit bins: FF uses 3, OPT uses 2.
  auto inst = small(4, 3);
  std::vector<double> y = {0.01, 0.49, 0.51, 0.51};
  auto ff = first_fit(inst, y);
  EXPECT_TRUE(ff.complete);
  EXPECT_EQ(ff.bins_used, 3);
  EXPECT_TRUE(ff.valid(inst, y));
  auto opt = optimal_packing(inst, y);
  EXPECT_EQ(opt.bins, 2);
  EXPECT_NEAR(vbp_gap(inst, y), 1.0, 1e-12);
}

TEST(Heuristics, FirstFitPlacesGreedily) {
  auto inst = small(3, 3);
  std::vector<double> y = {0.5, 0.5, 0.5};
  auto ff = first_fit(inst, y);
  EXPECT_EQ(ff.assignment[0], 0);
  EXPECT_EQ(ff.assignment[1], 0);  // fits exactly
  EXPECT_EQ(ff.assignment[2], 1);
  EXPECT_EQ(ff.bins_used, 2);
}

TEST(Heuristics, FirstFitDecreasingBeatsFirstFitHere) {
  auto inst = small(4, 4);
  std::vector<double> y = {0.01, 0.49, 0.51, 0.51};
  EXPECT_EQ(first_fit_decreasing(inst, y).bins_used, 2);
  EXPECT_EQ(first_fit(inst, y).bins_used, 3);
}

TEST(Heuristics, BestFitPicksTightestBin) {
  auto inst = small(4, 4);
  // 0.6 opens bin 0; 0.55 cannot join it and opens bin 1; 0.4 fits both and
  // best-fits bin 0 (residual 0.4 < 0.45); 0.39 then only fits bin 1.
  std::vector<double> y = {0.6, 0.55, 0.4, 0.39};
  auto bf = best_fit(inst, y);
  EXPECT_EQ(bf.assignment[2], 0);
  EXPECT_EQ(bf.assignment[3], 1);
  EXPECT_EQ(bf.bins_used, 2);
}

TEST(Heuristics, NextFitNeverLooksBack) {
  auto inst = small(4, 4);
  std::vector<double> y = {0.6, 0.6, 0.1, 0.6};
  auto nf = next_fit(inst, y);
  // 0.6 | 0.6+0.1 | 0.6 — next-fit cannot return to bin 0 for the 0.1.
  EXPECT_EQ(nf.bins_used, 3);
  EXPECT_EQ(nf.assignment[2], 1);
}

TEST(Heuristics, ZeroSizeBallsShareOneBin) {
  // Regression: zero-size balls must not "re-open" bins (bin usage is
  // assignment-based, not load-based) — otherwise the gap evaluator reports
  // a phantom gap at the origin of the input space.
  auto inst = small(5, 5);
  std::vector<double> zeros(5, 0.0);
  for (auto h : {VbpHeuristic::kFirstFit, VbpHeuristic::kBestFit,
                 VbpHeuristic::kFirstFitDecreasing, VbpHeuristic::kNextFit}) {
    auto pk = run_heuristic(h, inst, zeros);
    EXPECT_EQ(pk.bins_used, 1) << to_string(h);
  }
  EXPECT_NEAR(vbp_gap(inst, zeros), 0.0, 1e-12);
}

TEST(Heuristics, IncompleteWhenOutOfBins) {
  auto inst = small(3, 1);
  std::vector<double> y = {0.9, 0.9, 0.9};
  auto ff = first_fit(inst, y);
  EXPECT_FALSE(ff.complete);
  EXPECT_EQ(ff.assignment[1], -1);
}

TEST(Heuristics, MultiDimensionalFitChecksEveryDim) {
  VbpInstance inst;
  inst.num_balls = 2;
  inst.num_bins = 2;
  inst.dims = 2;
  inst.capacity = 1.0;
  // Ball 0 = (0.9, 0.1), ball 1 = (0.05, 0.95): dim 1 overflows if共 placed
  // together (0.1 + 0.95 > 1).
  std::vector<double> y = {0.9, 0.1, 0.05, 0.95};
  auto ff = first_fit(inst, y);
  EXPECT_EQ(ff.assignment[0], 0);
  EXPECT_EQ(ff.assignment[1], 1);
}

TEST(Optimal, MatchesMilpOnRandomInstances) {
  xplain::util::Rng rng(100);
  for (int it = 0; it < 10; ++it) {
    const int n = rng.uniform_int(2, 6);
    auto inst = small(n, n);
    std::vector<double> y(n);
    for (auto& v : y) v = rng.uniform(0.05, 0.95);
    auto bnb = optimal_packing_bnb_1d(inst, y);
    auto milp = optimal_packing_milp(inst, y);
    ASSERT_TRUE(milp.proven);
    EXPECT_EQ(bnb.bins, milp.bins) << "iter " << it;
    EXPECT_TRUE(bnb.packing.valid(inst, y));
  }
}

TEST(Optimal, NeverWorseThanAnyHeuristicProperty) {
  xplain::util::Rng rng(200);
  for (int it = 0; it < 25; ++it) {
    const int n = rng.uniform_int(2, 9);
    auto inst = small(n, n);
    std::vector<double> y(n);
    for (auto& v : y) v = rng.uniform(0.0, 1.0);
    auto opt = optimal_packing(inst, y);
    for (auto h : {VbpHeuristic::kFirstFit, VbpHeuristic::kBestFit,
                   VbpHeuristic::kFirstFitDecreasing, VbpHeuristic::kNextFit}) {
      auto pk = run_heuristic(h, inst, y);
      ASSERT_TRUE(pk.complete);
      ASSERT_TRUE(pk.valid(inst, y)) << to_string(h);
      EXPECT_LE(opt.bins, pk.bins_used) << to_string(h) << " iter " << it;
    }
    // Volume lower bound.
    double vol = 0;
    for (double v : y) vol += v;
    EXPECT_GE(opt.bins, static_cast<int>(std::ceil(vol - 1e-9)));
  }
}

TEST(Optimal, GapNonNegativeAndBoundedProperty) {
  xplain::util::Rng rng(300);
  for (int it = 0; it < 20; ++it) {
    const int n = rng.uniform_int(2, 8);
    auto inst = small(n, n);
    std::vector<double> y(n);
    for (auto& v : y) v = rng.uniform(0.0, 1.2);  // clamp path exercised
    const double g = vbp_gap(inst, y);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, n);  // can't use more than n bins
  }
}

TEST(VbpGap, CountsMatchPackings) {
  // vbp_gap runs the packing loops count-only on per-thread scratch; its
  // counts must equal the Packing-returning API's on the clamped sizes.
  xplain::util::Rng rng(400);
  int cases = 0, ffd_beaten = 0;
  for (int n = 0; n <= 10; ++n) {
    for (int it = 0; it < 12; ++it) {
      VbpInstance inst = small(n, std::max(n - 1, 0));
      inst.capacity = it % 3 == 0 ? 1.0 : rng.uniform(0.5, 4.0);
      std::vector<double> y = edge_sizes(inst, rng);
      // Sizes of 0.3 and 0.4 bins, where the search must beat its FFD
      // incumbent (two 0.4s and four 0.3s: FFD 3 bins, optimum 2).
      if (it % 4 == 3)
        for (double& v : y) v = (rng.bernoulli(0.4) ? 0.4 : 0.3) * inst.capacity;
      const std::vector<double> c = clamped(inst, y);
      VbpInstance wide = inst;
      wide.num_bins = std::max(n, 1);
      const OptimalResult opt = optimal_packing(wide, c);
      ASSERT_TRUE(opt.packing.valid(wide, c)) << "n " << n << " it " << it;
      for (VbpHeuristic h : kAllHeuristics) {
        const Packing pk = run_heuristic(h, wide, c);
        ASSERT_TRUE(pk.complete && pk.valid(wide, c)) << to_string(h);
        EXPECT_EQ(vbp_gap(inst, y, h),
                  static_cast<double>(pk.bins_used - opt.bins))
            << to_string(h) << " n " << n << " it " << it;
        ++cases;
        ffd_beaten += h == VbpHeuristic::kFirstFitDecreasing &&
                      pk.bins_used > opt.bins;
      }
    }
  }
  EXPECT_GE(ffd_beaten, 3);
  // dims = 2: the heuristic half runs on scratch, the optimum is the MILP.
  for (int it = 0; it < 6; ++it) {
    VbpInstance inst;
    inst.num_balls = 2 + it % 3;
    inst.num_bins = inst.num_balls;
    inst.dims = 2;
    inst.capacity = 1.0;
    const std::vector<double> y = edge_sizes(inst, rng);
    const std::vector<double> c = clamped(inst, y);
    const OptimalResult opt = optimal_packing(inst, c);
    ASSERT_TRUE(opt.proven);
    for (VbpHeuristic h : kAllHeuristics) {
      EXPECT_EQ(vbp_gap(inst, y, h),
                static_cast<double>(run_heuristic(h, inst, c).bins_used -
                                    opt.bins))
          << to_string(h) << " dims 2 it " << it;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 11 * 12 * 4 + 6 * 4);
}

TEST(VbpGap, FfdOrderIsTheStableSortOrder) {
  // FFD's insertion sort must give std::stable_sort's permutation: ties
  // (equal totals) keep ball order.  Every ball here needs a bin of its
  // own, so FFD puts the k-th ball of its order in bin k.
  xplain::util::Rng rng(500);
  for (int it = 0; it < 200; ++it) {
    VbpInstance inst = small(rng.uniform_int(0, 8), 8);
    inst.dims = 1 + it % 2;
    std::vector<double> y(inst.input_dim());
    for (double& v : y) v = rng.uniform_int(13, 16) * 0.04;  // > half a bin
    std::vector<int> order(inst.num_balls);
    std::iota(order.begin(), order.end(), 0);
    const auto total = [&](int b) {
      double t = 0.0;
      for (int d = 0; d < inst.dims; ++d) t += inst.size(y, b, d);
      return t;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return total(a) > total(b); });
    const Packing ffd = first_fit_decreasing(inst, y);
    ASSERT_EQ(ffd.bins_used, inst.num_balls) << "it " << it;
    for (int k = 0; k < inst.num_balls; ++k)
      EXPECT_EQ(ffd.assignment[order[k]], k) << "it " << it << " position " << k;
  }
}

TEST(VbpGap, WarmCallsDoNotAllocate) {
  xplain::util::Rng rng(600);
  std::vector<VbpInstance> insts;
  std::vector<std::vector<double>> ys;
  for (int i = 0; i < 1000; ++i) {
    insts.push_back(small(rng.uniform_int(0, 10), 1));
    ys.push_back(edge_sizes(insts.back(), rng));
  }
  // Warm this thread's scratch on the largest instance, for every rule.
  const VbpInstance big = small(10, 1);
  const std::vector<double> big_y(10, 0.3);
  for (VbpHeuristic h : kAllHeuristics) vbp_gap(big, big_y, h);

  const long before = g_allocations.load();
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i)
    sum += vbp_gap(insts[i], ys[i], kAllHeuristics[i % 4]);
  const long allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0);
  EXPECT_GE(sum, 0.0);
  // The counter does see the Packing-returning API allocate.
  run_heuristic(VbpHeuristic::kFirstFit, big, big_y);
  EXPECT_GT(g_allocations.load() - before, allocations);
}

// ---------------------------------------------------------------------------
// DSL face (Fig. 4b network + Fig. 1c rule).
// ---------------------------------------------------------------------------

TEST(FfNetwork, StructureMatchesFig4b) {
  auto inst = small(4, 3);
  auto ff = build_ff_network(inst);
  EXPECT_TRUE(ff.net.validate().empty());
  EXPECT_EQ(ff.net.input_sources().size(), 4u);  // one per ball
  EXPECT_EQ(ff.ball_bin_edges.size(), 4u);
  EXPECT_EQ(ff.ball_bin_edges[0].size(), 3u);
  // Ball sources enforce pick behavior (a ball goes to one bin).
  for (auto b : ff.ball_nodes)
    EXPECT_EQ(ff.net.node(b).source_behavior,
              xplain::flowgraph::NodeKind::kPick);
}

TEST(FfNetwork, RejectsMultiDim) {
  VbpInstance inst;
  inst.num_balls = 2;
  inst.num_bins = 2;
  inst.dims = 2;
  EXPECT_THROW(build_ff_network(inst), std::invalid_argument);
}

TEST(FfNetwork, FirstFitRuleMatchesSimulation) {
  auto inst = small(4, 4);
  xplain::model::HelperConfig hcfg;
  hcfg.big_m = 10;
  hcfg.eps = 1e-3;
  xplain::util::Rng rng(42);
  for (int it = 0; it < 6; ++it) {
    std::vector<double> y(inst.num_balls);
    // Centi-grid sizes stay clear of the eps boundary.
    for (auto& v : y) v = rng.uniform_int(1, 99) / 100.0;
    auto sim = first_fit(inst, y);
    ASSERT_TRUE(sim.complete);

    auto ffn = build_ff_network(inst);
    auto c = xplain::flowgraph::compile(ffn.net);
    auto alpha = add_first_fit_rule(c, ffn, inst, hcfg);
    fix_sizes(c, ffn, y);
    auto r = c.model.solve();
    ASSERT_EQ(r.status, xs::Status::kOptimal) << "iter " << it;
    for (int i = 0; i < inst.num_balls; ++i)
      for (int j = 0; j < inst.num_bins; ++j) {
        const double placed = r.x[c.flow(ffn.ball_bin_edges[i][j]).index];
        const double expect = sim.assignment[i] == j ? y[i] : 0.0;
        EXPECT_NEAR(placed, expect, 1e-4)
            << "iter " << it << " ball " << i << " bin " << j;
      }
    // alpha is one-hot per ball and matches the simulated assignment.
    for (int i = 0; i < inst.num_balls; ++i) {
      double total = 0;
      for (int j = 0; j < inst.num_bins; ++j) {
        total += r.x[alpha[i][j].index];
        if (sim.assignment[i] == j) {
          EXPECT_NEAR(r.x[alpha[i][j].index], 1.0, 1e-6);
        }
      }
      EXPECT_NEAR(total, 1.0, 1e-6);
    }
  }
}

TEST(FfNetwork, PackingToFlowsRoundTrip) {
  auto inst = small(4, 3);
  std::vector<double> y = {0.01, 0.49, 0.51, 0.51};
  auto ffn = build_ff_network(inst);
  auto pk = first_fit(inst, y);
  auto flows = ff_network_flows(ffn, inst, y, pk);
  ASSERT_EQ(static_cast<int>(flows.size()), ffn.net.num_edges());
  // Bin 0 holds balls 0 and 1: occupancy edge carries 0.50.
  EXPECT_NEAR(flows[ffn.occupancy_edges[0].v], 0.50, 1e-12);
  EXPECT_NEAR(flows[ffn.ball_bin_edges[0][0].v], 0.01, 1e-12);
  EXPECT_NEAR(flows[ffn.ball_bin_edges[2][1].v], 0.51, 1e-12);
}
