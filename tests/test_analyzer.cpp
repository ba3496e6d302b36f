// Tests for the heuristic analyzers: evaluators, pattern search, and the
// exact MetaOpt-style MILP analyzers (DP bi-level rewrite, FF encoding).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "analyzer/search_analyzer.h"
#include "cases/dp_case.h"
#include "cases/dp_milp_analyzer.h"
#include "cases/ff_case.h"
#include "cases/ff_milp_analyzer.h"
#include "counting_evaluator.h"
#include "util/parallel.h"
#include "vbp/optimal.h"
#include "xplain/case.h"

using namespace xplain::analyzer;
using xplain::test_support::CountingEvaluator;
using xplain::cases::DpGapEvaluator;
using xplain::cases::DpMilpAnalyzer;
using xplain::cases::DpMilpOptions;
using xplain::cases::FfMilpAnalyzer;
using xplain::cases::VbpGapEvaluator;
namespace te = xplain::te;
namespace vbp = xplain::vbp;
namespace util = xplain::util;

namespace {

DpGapEvaluator fig1a_eval() {
  return DpGapEvaluator(te::TeInstance::fig1a_example(), te::DpConfig{50.0},
                        /*quantum=*/1.0);
}

vbp::VbpInstance vbp4x3() {
  vbp::VbpInstance inst;
  inst.num_balls = 4;
  inst.num_bins = 3;
  inst.dims = 1;
  inst.capacity = 1.0;
  return inst;
}

}  // namespace

TEST(Box, ContainsIntersectVolume) {
  Box a{{0, 0}, {2, 2}};
  Box b{{1, 1}, {3, 3}};
  EXPECT_TRUE(a.contains({1, 1}));
  EXPECT_FALSE(a.contains({3, 1}));
  auto c = a.intersect(b);
  EXPECT_FALSE(c.empty());
  EXPECT_DOUBLE_EQ(c.volume(), 1.0);
  Box d{{5, 5}, {6, 6}};
  EXPECT_TRUE(a.intersect(d).empty());
}

TEST(Evaluator, DpGapAtPaperPoint) {
  auto eval = fig1a_eval();
  EXPECT_EQ(eval.dim(), 3);
  EXPECT_NEAR(eval.gap({50, 100, 100}), 100.0, 1e-6);
  EXPECT_NEAR(eval.gap({60, 100, 100}), 0.0, 1e-6);  // above threshold
}

TEST(Evaluator, QuantizeSnapsToGrid) {
  auto eval = fig1a_eval();
  auto q = eval.quantize({49.4, 100.2, -3.0});
  EXPECT_DOUBLE_EQ(q[0], 49.0);
  EXPECT_DOUBLE_EQ(q[1], 100.0);
  EXPECT_DOUBLE_EQ(q[2], 0.0);
}

TEST(Evaluator, DimNamesAreHumanReadable) {
  auto eval = fig1a_eval();
  auto names = eval.dim_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "d[1~>3]");
  VbpGapEvaluator veval(vbp4x3());
  EXPECT_EQ(veval.dim_names()[2], "Y[2]");
}

TEST(SearchAnalyzer, FindsDpAdversarialInput) {
  auto eval = fig1a_eval();
  SearchAnalyzer an;
  auto ex = an.find_adversarial(eval, /*min_gap=*/50.0, {});
  ASSERT_TRUE(ex.has_value());
  EXPECT_GE(ex->gap, 50.0);
  // The found demand must actually reproduce the gap.
  EXPECT_NEAR(eval.gap(ex->input), ex->gap, 1e-9);
}

TEST(SearchAnalyzer, FindsFfAdversarialInput) {
  VbpGapEvaluator eval(vbp4x3());
  SearchAnalyzer an;
  auto ex = an.find_adversarial(eval, /*min_gap=*/1.0, {});
  ASSERT_TRUE(ex.has_value());
  EXPECT_GE(ex->gap, 1.0);  // FF uses at least one extra bin
}

TEST(SearchAnalyzer, RespectsExclusionBoxes) {
  auto eval = fig1a_eval();
  SearchAnalyzer an;
  auto first = an.find_adversarial(eval, 50.0, {});
  ASSERT_TRUE(first.has_value());
  // Exclude the entire input box: nothing can be found.
  std::vector<Box> all = {eval.input_box()};
  EXPECT_FALSE(an.find_adversarial(eval, 50.0, all).has_value());
}

TEST(SearchAnalyzer, BeatsRandomBaseline) {
  // The paper's premise: random search is much weaker at equal budget.
  auto eval = fig1a_eval();
  SearchAnalyzer an;
  auto guided = an.find_adversarial(eval, 0.0, {});
  auto random = SearchAnalyzer::random_baseline(eval, 0.0, {}, 500, 99);
  ASSERT_TRUE(guided.has_value());
  ASSERT_TRUE(random.has_value());
  EXPECT_GE(guided->gap, random->gap - 1e-9);
}

TEST(SearchAnalyzer, NoFalsePositiveWhenHeuristicIsOptimal) {
  // Single demand on a single path: DP == OPT everywhere; no gap exists.
  te::Topology t(2);
  t.add_link(0, 1, 100);
  auto inst = te::TeInstance::make(t, {{0, 1}}, 1, 100);
  DpGapEvaluator eval(inst, te::DpConfig{50.0});
  SearchAnalyzer an;
  EXPECT_FALSE(an.find_adversarial(eval, 1.0, {}).has_value());
}

// ---------------------------------------------------------------------------
// Exact MILP analyzers.
// ---------------------------------------------------------------------------

TEST(DpMilp, FindsTheFullGapOnFig1a) {
  auto eval = fig1a_eval();
  DpMilpOptions opts;
  opts.quantum = 25.0;  // coarse grid keeps the MILP small in tests
  DpMilpAnalyzer an(te::TeInstance::fig1a_example(), te::DpConfig{50.0}, opts);
  auto ex = an.find_adversarial(eval, 50.0, {});
  ASSERT_TRUE(ex.has_value());
  // The known worst case (d = {50, 100, 100}) has gap 100; the MILP must
  // find a gap of at least that on the 25-grid (which contains the point).
  EXPECT_NEAR(ex->gap, 100.0, 1e-6);
  EXPECT_NEAR(eval.gap(ex->input), ex->gap, 1e-6);
}

TEST(DpMilp, AgreesWithSearchOnSmallInstance) {
  auto inst = te::TeInstance::fig1a_example();
  auto eval = fig1a_eval();
  DpMilpOptions opts;
  opts.quantum = 25.0;
  DpMilpAnalyzer milp(inst, te::DpConfig{50.0}, opts);
  SearchAnalyzer search;
  auto a = milp.find_adversarial(eval, 1.0, {});
  auto b = search.find_adversarial(eval, 1.0, {});
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // The exact analyzer cannot be worse than search (up to grid resolution).
  EXPECT_GE(a->gap, b->gap - 25.0);
}

TEST(DpMilp, ExclusionForcesNewRegion) {
  auto eval = fig1a_eval();
  DpMilpOptions opts;
  opts.quantum = 25.0;
  DpMilpAnalyzer an(te::TeInstance::fig1a_example(), te::DpConfig{50.0}, opts);
  auto first = an.find_adversarial(eval, 10.0, {});
  ASSERT_TRUE(first.has_value());
  // Exclude a box around the first point; the next answer must differ.
  Box around;
  around.lo = first->input;
  around.hi = first->input;
  for (auto& v : around.lo) v -= 20.0;
  for (auto& v : around.hi) v += 20.0;
  auto second = an.find_adversarial(eval, 10.0, {around});
  if (second.has_value()) {
    EXPECT_FALSE(around.contains(second->input, 1e-9));
  }
}

TEST(FfMilp, FindsOneExtraBinOn4Balls3Bins) {
  VbpGapEvaluator eval(vbp4x3());
  FfMilpAnalyzer an(vbp4x3());
  auto ex = an.find_adversarial(eval, 1.0, {});
  ASSERT_TRUE(ex.has_value());
  EXPECT_GE(ex->gap, 1.0);
  // Sanity: simulated FF really is one bin worse than OPT at that input.
  EXPECT_NEAR(eval.gap(ex->input), ex->gap, 1e-9);
}

TEST(FfMilp, EncodingMatchesSimulationAtItsOwnPoint) {
  FfMilpAnalyzer an(vbp4x3());
  auto ex = an.solve({});
  ASSERT_TRUE(ex.has_value());
  auto inst = vbp4x3();
  inst.num_bins = inst.num_balls;
  std::vector<double> y = ex->input;
  for (auto& v : y) v = std::clamp(v, 0.0, 1.0);
  auto ff = vbp::first_fit(inst, y);
  auto opt = vbp::optimal_packing(inst, y);
  EXPECT_NEAR(static_cast<double>(ff.bins_used - opt.bins), ex->gap, 1e-9);
}


// ---------------------------------------------------------------------------
// Cross-call reuse in SearchAnalyzer: every call must equal a stateless
// search bit for bit, while scoring fewer points.
// ---------------------------------------------------------------------------

namespace {

bool excluded_ref(const std::vector<Box>& excluded,
                  const std::vector<double>& x) {
  for (const auto& b : excluded)
    if (b.contains(x)) return true;
  return false;
}

double score_ref(const GapEvaluator& eval, const std::vector<Box>& excluded,
                 const std::vector<double>& x) {
  if (excluded_ref(excluded, x))
    return -std::numeric_limits<double>::infinity();
  return eval.gap(x);
}

/// The pattern search as it was before cross-call reuse: keeps no state,
/// scores every point it visits.  The reference every reusing call must
/// reproduce bitwise.
std::optional<AdversarialExample> reference_find(
    const SearchOptions& opts, const GapEvaluator& eval, double min_gap,
    const std::vector<Box>& excluded) {
  const Box box = eval.input_box();
  const int n = box.dim();
  util::Rng rng(opts.seed);
  AdversarialExample best;
  best.gap = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> starts;
  {
    std::vector<std::pair<double, std::vector<double>>> pre;
    for (int s = 0; s < opts.presamples; ++s)
      pre.emplace_back(0.0, eval.quantize(rng.uniform_point(box.lo, box.hi)));
    util::parallel_chunks(pre.size(), opts.workers,
                          [&](std::size_t begin, std::size_t end, int) {
                            for (std::size_t s = begin; s < end; ++s)
                              pre[s].first =
                                  score_ref(eval, excluded, pre[s].second);
                          });
    std::partial_sort(pre.begin(),
                      pre.begin() + std::min<std::size_t>(
                                        pre.size(), opts.presample_starts),
                      pre.end(), [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    for (int s = 0;
         s < opts.presample_starts && s < static_cast<int>(pre.size()); ++s)
      starts.push_back(std::move(pre[s].second));
  }
  for (double fa : opts.seed_fracs) {
    for (double fb : opts.seed_fracs) {
      std::vector<double> x(n);
      for (int i = 0; i < n; ++i) {
        const double f = (i % 2 == 0) ? fa : fb;
        x[i] = box.lo[i] + f * (box.hi[i] - box.lo[i]);
      }
      starts.push_back(eval.quantize(x));
      if (static_cast<int>(starts.size()) >= 3 * opts.restarts / 4) break;
    }
    if (static_cast<int>(starts.size()) >= 3 * opts.restarts / 4) break;
  }
  while (static_cast<int>(starts.size()) < opts.restarts)
    starts.push_back(eval.quantize(rng.uniform_point(box.lo, box.hi)));
  for (const auto& start : starts) {
    std::vector<double> x = start;
    double fx = score_ref(eval, excluded, x);
    double step = opts.init_step_frac;
    int iters = 0;
    while (step >= opts.min_step_frac && iters < opts.max_iters) {
      bool improved = false;
      for (int i = 0; i < n && iters < opts.max_iters; ++i) {
        const double width = box.hi[i] - box.lo[i];
        if (width <= 0) continue;
        for (double dir : {+1.0, -1.0}) {
          std::vector<double> y = x;
          y[i] = std::clamp(y[i] + dir * step * width, box.lo[i], box.hi[i]);
          y = eval.quantize(y);
          if (y[i] == x[i]) continue;
          ++iters;
          const double fy = score_ref(eval, excluded, y);
          if (fy > fx + 1e-12) {
            x = std::move(y);
            fx = fy;
            improved = true;
            break;
          }
        }
      }
      if (!improved) step *= 0.5;
    }
    if (fx > best.gap) {
      best.gap = fx;
      best.input = x;
    }
  }
  if (!std::isfinite(best.gap) || best.gap < min_gap) return std::nullopt;
  return best;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

::testing::AssertionResult same_result(
    const std::optional<AdversarialExample>& got,
    const std::optional<AdversarialExample>& want) {
  if (got.has_value() != want.has_value())
    return ::testing::AssertionFailure()
           << "found " << got.has_value() << ", reference found "
           << want.has_value();
  if (got && (!same_bits(got->gap, want->gap) ||
              !same_bits(got->input, want->input)))
    return ::testing::AssertionFailure()
           << "gap " << got->gap << " vs reference " << want->gap;
  return ::testing::AssertionSuccess();
}

/// The box the subspace generator would exclude around an example: a cube
/// of `frac` box widths, clamped to the input box.
Box box_around(const Box& limit, const std::vector<double>& x, double frac) {
  Box b;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double w = limit.hi[i] - limit.lo[i];
    b.lo.push_back(std::max(limit.lo[i], x[i] - frac * w));
    b.hi.push_back(std::min(limit.hi[i], x[i] + frac * w));
  }
  return b;
}

/// A box beside the input box: it contains no point the search can score.
Box box_outside(const Box& limit) {
  Box b = limit;
  for (std::size_t i = 0; i < b.lo.size(); ++i) {
    b.lo[i] = limit.hi[i] + 1.0;
    b.hi[i] = limit.hi[i] + 2.0;
  }
  return b;
}

std::unique_ptr<GapEvaluator> registry_evaluator(const std::string& name) {
  auto c = xplain::registry().find(name);
  return c ? c->make_evaluator() : nullptr;
}

vbp::VbpInstance vbp6x4() {
  vbp::VbpInstance inst;
  inst.num_balls = 6;
  inst.num_bins = 4;
  inst.dims = 1;
  inst.capacity = 1.0;
  return inst;
}

/// Drives the generator's find -> exclude loop for `calls` calls and checks
/// every call against the stateless reference; returns the analyzer's gap
/// calls per call.
std::vector<long> check_against_reference(const GapEvaluator& eval,
                                          const SearchOptions& opts,
                                          double min_gap, int calls) {
  CountingEvaluator counted(eval);
  SearchAnalyzer an(opts);
  std::vector<Box> excluded;
  std::vector<long> gap_calls;
  for (int call = 0; call < calls; ++call) {
    CountingEvaluator ref_counted(eval);
    const auto want = reference_find(opts, ref_counted, min_gap, excluded);
    const long before = counted.calls();
    const auto got = an.find_adversarial(counted, min_gap, excluded);
    gap_calls.push_back(counted.calls() - before);
    EXPECT_TRUE(same_result(got, want))
        << eval.name() << " call " << call << " workers " << opts.workers;
    EXPECT_LE(gap_calls.back(), ref_counted.calls())
        << eval.name() << " call " << call;
    if (!want) break;
    excluded.push_back(box_around(eval.input_box(), want->input, 0.08));
  }
  return gap_calls;
}

}  // namespace

TEST(SearchAnalyzerReuse, EveryCallMatchesTheStatelessSearch) {
  const DpGapEvaluator fig1a = fig1a_eval();
  const auto chain = registry_evaluator("demand_pinning_chain");
  const auto wcmp = registry_evaluator("wcmp");
  ASSERT_TRUE(chain && wcmp);
  const VbpGapEvaluator ff(vbp6x4());
  struct Case {
    const GapEvaluator* eval;
    double min_gap;
  };
  for (const Case& c : {Case{&fig1a, 1.0}, Case{chain.get(), 1.0},
                        Case{wcmp.get(), 0.0}, Case{&ff, 1.0}}) {
    for (int workers : {1, 4}) {
      SearchOptions opts;
      opts.workers = workers;
      const auto calls = check_against_reference(*c.eval, opts, c.min_gap, 4);
      ASSERT_GE(calls.size(), 3u) << c.eval->name();
      // Past the first call the presample alone is already reused.
      for (std::size_t k = 1; k < calls.size(); ++k)
        EXPECT_LT(calls[k], calls[0]) << c.eval->name() << " call " << k;
    }
  }
}

TEST(SearchAnalyzerReuse, NoWalkScoresAPointTwice) {
  // One start and no presample: every gap call of a call comes from one
  // walk, so a repeated point would be a revisit that reached gap().
  const DpGapEvaluator fig1a = fig1a_eval();
  const auto wcmp = registry_evaluator("wcmp");
  ASSERT_TRUE(wcmp);
  for (const GapEvaluator* eval :
       std::vector<const GapEvaluator*>{&fig1a, wcmp.get()}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SearchOptions opts;
      opts.seed = seed;
      opts.restarts = 1;
      opts.presamples = 0;
      opts.presample_starts = 0;
      if (seed % 2 == 0) opts.seed_fracs.clear();  // a random start instead
      CountingEvaluator counted(*eval);
      SearchAnalyzer an(opts);
      std::vector<Box> excluded;
      for (int call = 0; call < 3; ++call) {
        CountingEvaluator ref_counted(*eval);
        const auto want = reference_find(opts, ref_counted, 0.0, excluded);
        const auto got = an.find_adversarial(counted, 0.0, excluded);
        EXPECT_TRUE(same_result(got, want)) << eval->name() << " " << seed;
        auto points = counted.take_points();
        const std::size_t scored = points.size();
        std::sort(points.begin(), points.end());
        points.erase(std::unique(points.begin(), points.end(),
                                 [](const auto& a, const auto& b) {
                                   return same_bits(a, b);
                                 }),
                     points.end());
        EXPECT_EQ(points.size(), scored)
            << eval->name() << " seed " << seed << " call " << call;
        if (!want) break;
        excluded.push_back(box_around(eval->input_box(), want->input, 0.08));
      }
    }
  }
}

TEST(SearchAnalyzerReuse, CallWhoseAddedBoxHoldsNoScoredPointMakesNoGapCalls) {
  const DpGapEvaluator fig1a = fig1a_eval();
  const auto wcmp = registry_evaluator("wcmp");
  ASSERT_TRUE(wcmp);
  for (const GapEvaluator* eval :
       std::vector<const GapEvaluator*>{&fig1a, wcmp.get()}) {
    for (int workers : {1, 4}) {
      SearchOptions opts;
      opts.workers = workers;
      CountingEvaluator counted(*eval);
      SearchAnalyzer an(opts);
      std::vector<Box> excluded = {
          box_around(eval->input_box(),
                     reference_find(opts, *eval, 0.0, {})->input, 0.08)};
      ASSERT_TRUE(same_result(an.find_adversarial(counted, 0.0, excluded),
                              reference_find(opts, *eval, 0.0, excluded)));
      const long first = counted.calls();
      EXPECT_GT(first, 0);
      // The same list again, then one box that holds no scorable point.
      for (int repeat = 0; repeat < 2; ++repeat) {
        if (repeat == 1) excluded.push_back(box_outside(eval->input_box()));
        const auto got = an.find_adversarial(counted, 0.0, excluded);
        EXPECT_EQ(counted.calls(), first) << eval->name() << " " << repeat;
        EXPECT_TRUE(
            same_result(got, reference_find(opts, *eval, 0.0, excluded)));
      }
    }
  }
}

TEST(SearchAnalyzerReuse, EveryAddedBoxIsChecked) {
  // Two boxes added at once: the first holds the previous answer, the
  // second nothing.  Checking only the newest box would hand the excluded
  // answer back.
  const DpGapEvaluator eval = fig1a_eval();
  SearchOptions opts;
  SearchAnalyzer an(opts);
  const auto first = an.find_adversarial(eval, 1.0, {});
  ASSERT_TRUE(first.has_value());
  const std::vector<Box> excluded = {
      box_around(eval.input_box(), first->input, 0.08),
      box_outside(eval.input_box())};
  const auto got = an.find_adversarial(eval, 1.0, excluded);
  EXPECT_TRUE(same_result(got, reference_find(opts, eval, 1.0, excluded)));
  if (got) {
    EXPECT_FALSE(excluded[0].contains(got->input));
  }
}

TEST(SearchAnalyzerReuse, AStartScoredByThePresampleBoundsItsWalk) {
  // Every input quantizes to one point, so every start is that point and
  // its walk never steps: the only score the walk reads is the one the
  // presample already took.  Excluding the point must still rerun it.
  class OnePoint : public GapEvaluator {
   public:
    int dim() const override { return 1; }
    Box input_box() const override { return Box{{0.0}, {1.0}}; }
    double gap(const std::vector<double>&) const override { return 1.0; }
    std::vector<double> quantize(const std::vector<double>&) const override {
      return {0.0};
    }
    std::string name() const override { return "one_point"; }
  };
  const OnePoint eval;
  SearchOptions opts;
  SearchAnalyzer an(opts);
  ASSERT_TRUE(an.find_adversarial(eval, 0.0, {}).has_value());
  const std::vector<Box> excluded = {Box{{0.0}, {0.0}}};
  EXPECT_FALSE(reference_find(opts, eval, 0.0, excluded).has_value());
  EXPECT_FALSE(an.find_adversarial(eval, 0.0, excluded).has_value());
}

TEST(SearchAnalyzerReuse, NothingCarriesOverToAnotherEvaluator) {
  // A different evaluator rebuilt in the same storage has the same address
  // (and here the same input box), but not the same id: the analyzer must
  // answer exactly as a fresh one would.
  SearchOptions opts;
  SearchAnalyzer an(opts);
  std::optional<DpGapEvaluator> slot;
  slot.emplace(te::TeInstance::fig1a_example(), te::DpConfig{50.0}, 1.0);
  const void* address = &*slot;
  const std::uint64_t first_id = slot->id();
  const std::vector<Box> none;
  ASSERT_TRUE(an.find_adversarial(*slot, 0.0, none).has_value());
  for (double threshold : {30.0, 70.0}) {
    slot.reset();
    slot.emplace(te::TeInstance::fig1a_example(), te::DpConfig{threshold},
                 1.0);
    ASSERT_EQ(static_cast<const void*>(&*slot), address);
    EXPECT_NE(slot->id(), first_id);
    SearchAnalyzer fresh(opts);
    EXPECT_TRUE(same_result(an.find_adversarial(*slot, 0.0, none),
                            fresh.find_adversarial(*slot, 0.0, none)))
        << threshold;
  }
}

TEST(SearchAnalyzerReuse, NothingCarriesOverToAnUnrelatedList) {
  // After a prefix-extending sequence, lists that are shorter or differ in
  // one box must be answered as a fresh analyzer answers them.
  const DpGapEvaluator eval = fig1a_eval();
  SearchOptions opts;
  SearchAnalyzer an(opts);
  const Box limit = eval.input_box();
  std::vector<Box> excluded;
  for (int call = 0; call < 3; ++call) {
    const auto got = an.find_adversarial(eval, 1.0, excluded);
    ASSERT_TRUE(same_result(got, reference_find(opts, eval, 1.0, excluded)));
    ASSERT_TRUE(got.has_value());
    excluded.push_back(box_around(limit, got->input, 0.08));
  }
  std::vector<std::vector<Box>> lists;
  lists.push_back({excluded[0]});                        // shorter
  lists.push_back({excluded[0], excluded[1]});           // shorter again
  lists.push_back({box_outside(limit), excluded[1]});    // first box differs
  lists.push_back({excluded[0], box_outside(limit)});    // last box differs
  lists.push_back({});                                   // empty
  for (const auto& list : lists) {
    SearchAnalyzer fresh(opts);
    EXPECT_TRUE(same_result(an.find_adversarial(eval, 1.0, list),
                            fresh.find_adversarial(eval, 1.0, list)))
        << list.size() << " boxes";
  }
}

TEST(GapEvaluatorId, UniquePerConstructionSharedByCopies) {
  const DpGapEvaluator a = fig1a_eval();
  const DpGapEvaluator b = fig1a_eval();
  EXPECT_NE(a.id(), 0u);
  EXPECT_NE(a.id(), b.id());
  const DpGapEvaluator copy = a;
  EXPECT_EQ(copy.id(), a.id());
  DpGapEvaluator assigned = fig1a_eval();
  assigned = b;
  EXPECT_EQ(assigned.id(), b.id());
  const CountingEvaluator wrapper(a);
  EXPECT_NE(wrapper.id(), a.id());
  const VbpGapEvaluator v(vbp4x3());
  EXPECT_NE(v.id(), a.id());
  EXPECT_NE(v.id(), b.id());
}
