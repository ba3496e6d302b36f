// Tests for the adversarial subspace generator: regions, sampling, the
// regression tree, significance checking, and the full generate() loop on
// a synthetic evaluator with *known planted* adversarial regions.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "analyzer/search_analyzer.h"
#include "counting_evaluator.h"
#include "stats/dkw.h"
#include "subspace/subspace_generator.h"

using namespace xplain::subspace;
using namespace xplain::analyzer;
using xplain::test_support::CountingEvaluator;

namespace {

// Synthetic evaluator with two planted adversarial boxes in [0,1]^2:
//   A = [0.1,0.3] x [0.6,0.9]  with gap 10,
//   B = [0.7,0.9] x [0.1,0.3]  with gap 6,
// and gap 0 elsewhere.  Ground truth for the generator.
class PlantedEvaluator : public GapEvaluator {
 public:
  int dim() const override { return 2; }
  Box input_box() const override { return Box{{0, 0}, {1, 1}}; }
  double gap(const std::vector<double>& x) const override {
    if (a_.contains(x)) return 10.0;
    if (b_.contains(x)) return 6.0;
    return 0.0;
  }
  std::string name() const override { return "planted"; }

  Box a_{{0.1, 0.6}, {0.3, 0.9}};
  Box b_{{0.7, 0.1}, {0.9, 0.3}};
};

// A quantized pseudo-random gap field on [0, 8]^d: each cell of the 0.25
// grid gets a hashed gap in [0, 10), raised by 4 inside the central cube
// [2, 6]^d, so slices there are mostly bad and slices elsewhere are mixed.
class FieldEvaluator : public GapEvaluator {
 public:
  FieldEvaluator(int d, std::uint64_t seed) : d_(d), seed_(seed) {}
  int dim() const override { return d_; }
  Box input_box() const override {
    return Box{std::vector<double>(d_, 0.0), std::vector<double>(d_, 8.0)};
  }
  std::vector<double> quantize(const std::vector<double>& x) const override {
    std::vector<double> q(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) q[i] = std::round(x[i] * 4) / 4;
    return q;
  }
  double gap(const std::vector<double>& x) const override {
    std::uint64_t h = seed_;
    bool central = true;
    for (double v : x) {
      h = xplain::util::Rng::derive_seed(
          h, static_cast<std::uint64_t>(std::llround(v * 4)));
      central = central && v >= 2.0 && v <= 6.0;
    }
    return static_cast<double>(h % 1000) / 100.0 + (central ? 4.0 : 0.0);
  }
  std::string name() const override { return "field"; }

 private:
  int d_;
  std::uint64_t seed_;
};

struct ReferenceGrowth {
  Box box;
  long full_calls = 0;     // every point of every slice
  long settled_calls = 0;  // per slice, the fewest points that settle it
};

// grow_rough_box scoring every point of every slice: sample_box and
// bad_density.  Per slice it also finds the shortest prefix after which
// no score of the remaining points can change the verdict.
ReferenceGrowth reference_rough_box(const GapEvaluator& eval,
                                    const SubspaceOptions& opts,
                                    const std::vector<double>& seed,
                                    double bad_threshold,
                                    xplain::util::Rng& rng) {
  const Box limit = eval.input_box();
  const int d = limit.dim();
  const std::size_t n =
      xplain::stats::dkw_sample_count(opts.dkw_eps, opts.dkw_delta);
  const auto verdict = [&](std::size_t bad) {
    return static_cast<double>(bad) / static_cast<double>(n) >=
           opts.density_threshold;
  };
  ReferenceGrowth out;
  const auto dense = [&](const Box& slice) {
    const auto samples = sample_box(eval, slice, n, rng);
    out.full_calls += static_cast<long>(samples.size());
    std::size_t bad = 0, k = 0;
    while (k < samples.size() &&
           verdict(bad) != verdict(bad + (samples.size() - k))) {
      if (samples[k].gap >= bad_threshold) ++bad;
      ++k;
    }
    out.settled_calls += static_cast<long>(k);
    return bad_density(samples, bad_threshold) >= opts.density_threshold;
  };

  Box& box = out.box;
  box.lo.resize(d);
  box.hi.resize(d);
  for (int i = 0; i < d; ++i) {
    const double w = limit.hi[i] - limit.lo[i];
    box.lo[i] = std::max(limit.lo[i], seed[i] - opts.init_half_width_frac * w);
    box.hi[i] = std::min(limit.hi[i], seed[i] + opts.init_half_width_frac * w);
  }
  for (int round = 0; round < opts.max_expansion_rounds; ++round) {
    bool grew = false;
    for (int i = 0; i < d; ++i) {
      const double w = limit.hi[i] - limit.lo[i];
      const double step = opts.slice_frac * w;
      if (box.hi[i] < limit.hi[i] - 1e-12) {
        Box slice = box;
        slice.lo[i] = box.hi[i];
        slice.hi[i] = std::min(limit.hi[i], box.hi[i] + step);
        if (dense(slice)) {
          box.hi[i] = slice.hi[i];
          grew = true;
        }
      }
      if (box.lo[i] > limit.lo[i] + 1e-12) {
        Box slice = box;
        slice.hi[i] = box.lo[i];
        slice.lo[i] = std::max(limit.lo[i], box.lo[i] - step);
        if (dense(slice)) {
          box.lo[i] = slice.lo[i];
          grew = true;
        }
      }
    }
    if (!grew) break;
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The tree fit with the split search fit_regression_tree used to run: per
// candidate cut, partition the node's samples into two lists and sum each
// list's squared deviations.  The reference for the gathered-column search.
std::vector<RegressionTree::Node> reference_tree(
    const std::vector<LabeledSample>& samples, const TreeOptions& opts) {
  using Items = std::vector<const LabeledSample*>;
  std::vector<RegressionTree::Node> nodes;
  if (samples.empty()) return {RegressionTree::Node{}};
  const int dim = static_cast<int>(samples[0].x.size());
  const auto sse_of = [](const Items& items) {
    if (items.empty()) return 0.0;
    double m = 0.0;
    for (auto* s : items) m += s->gap;
    m /= static_cast<double>(items.size());
    double sse = 0.0;
    for (auto* s : items) sse += (s->gap - m) * (s->gap - m);
    return sse;
  };
  std::function<int(Items, int)> build = [&](Items items, int depth) -> int {
    RegressionTree::Node node;
    node.count = static_cast<int>(items.size());
    double mean = 0.0;
    for (auto* s : items) mean += s->gap;
    node.value = mean / std::max<std::size_t>(items.size(), 1);
    const int id = static_cast<int>(nodes.size());
    nodes.push_back(node);
    if (depth >= opts.max_depth ||
        static_cast<int>(items.size()) < 2 * opts.min_samples_leaf)
      return id;
    const double parent_sse = sse_of(items);
    if (parent_sse <= 1e-12) return id;
    int best_f = -1;
    double best_t = 0.0, best_sse = parent_sse - 1e-9;
    for (int f = 0; f < dim; ++f) {
      std::vector<double> vals;
      for (auto* s : items) vals.push_back(s->x[f]);
      std::sort(vals.begin(), vals.end());
      vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
      if (vals.size() < 2) continue;
      const std::size_t stride =
          std::max<std::size_t>(1, (vals.size() - 1) / opts.max_thresholds);
      for (std::size_t i = 0; i + 1 < vals.size(); i += stride) {
        const double t = 0.5 * (vals[i] + vals[i + 1]);
        Items l, r;
        for (auto* s : items) (s->x[f] <= t ? l : r).push_back(s);
        if (static_cast<int>(l.size()) < opts.min_samples_leaf ||
            static_cast<int>(r.size()) < opts.min_samples_leaf)
          continue;
        const double sse = sse_of(l) + sse_of(r);
        if (sse < best_sse) {
          best_sse = sse;
          best_f = f;
          best_t = t;
        }
      }
    }
    if (best_f < 0) return id;
    Items l, r;
    for (auto* s : items) (s->x[best_f] <= best_t ? l : r).push_back(s);
    nodes[id].feature = best_f;
    nodes[id].threshold = best_t;
    const int left = build(std::move(l), depth + 1);
    nodes[id].left = left;
    const int right = build(std::move(r), depth + 1);
    nodes[id].right = right;
    return id;
  };
  Items all;
  for (const auto& s : samples) all.push_back(&s);
  build(std::move(all), 0);
  return nodes;
}

}  // namespace

TEST(Region, HalfspaceAndPolytope) {
  Halfspace h{{1.0, -1.0}, 0.5};  // x0 - x1 <= 0.5
  EXPECT_TRUE(h.satisfied({0.6, 0.2}));
  EXPECT_FALSE(h.satisfied({0.9, 0.1}));
  Polytope p;
  p.box = Box{{0, 0}, {1, 1}};
  p.halfspaces.push_back(h);
  EXPECT_TRUE(p.contains({0.5, 0.5}));
  EXPECT_FALSE(p.contains({0.9, 0.1}));
  EXPECT_FALSE(p.contains({1.5, 0.5}));  // outside the box
  const std::string s = p.to_string({"a", "b"});
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(p.to_matrix_form().find("T (tree rows)"), std::string::npos);
}

TEST(Sampler, SamplesStayInBox) {
  PlantedEvaluator eval;
  xplain::util::Rng rng(1);
  Box box{{0.2, 0.2}, {0.4, 0.4}};
  auto samples = sample_box(eval, box, 100, rng);
  ASSERT_EQ(samples.size(), 100u);
  for (const auto& s : samples) EXPECT_TRUE(box.contains(s.x, 1e-12));
}

TEST(Sampler, UniformPointIntoStorageDrawsTheSamePoints) {
  // The write-into-storage draw takes the same per-coordinate draws, in
  // the same order, as uniform(lo_i, hi_i), whatever `out` held before.
  xplain::util::Rng boxes(10), a(11), b(11);
  std::vector<double> out(7, -1.0);
  for (int it = 0; it < 50; ++it) {
    const std::size_t d = 1 + it % 5;
    std::vector<double> lo(d), hi(d), expect(d);
    for (std::size_t i = 0; i < d; ++i) {
      lo[i] = boxes.uniform(-2, 0);
      hi[i] = lo[i] + boxes.uniform(0, 3);
    }
    for (std::size_t i = 0; i < d; ++i) expect[i] = b.uniform(lo[i], hi[i]);
    a.uniform_point(lo, hi, out);
    EXPECT_TRUE(same_bits(out, expect)) << "it " << it;
    EXPECT_TRUE(same_bits(a.uniform_point(lo, hi), b.uniform_point(lo, hi)));
    EXPECT_EQ(a.engine()(), b.engine()()) << "it " << it;
  }
}

TEST(Sampler, BadDensityCountsThreshold) {
  std::vector<LabeledSample> ss = {{{0}, 1.0}, {{0}, 5.0}, {{0}, 0.0}};
  EXPECT_NEAR(bad_density(ss, 1.0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(bad_density(ss, 6.0), 0.0, 1e-12);
}

TEST(Tree, FitsStepFunction) {
  // y = 10 for x <= 0.5, else 0: one split suffices.
  std::vector<LabeledSample> samples;
  xplain::util::Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    double x = rng.uniform(0, 1);
    samples.push_back({{x}, x <= 0.5 ? 10.0 : 0.0});
  }
  auto tree = fit_regression_tree(samples);
  EXPECT_NEAR(tree.predict({0.2}), 10.0, 1e-9);
  EXPECT_NEAR(tree.predict({0.8}), 0.0, 1e-9);
  // The learned threshold is near 0.5.
  ASSERT_GE(tree.num_nodes(), 3);
  EXPECT_NEAR(tree.nodes()[0].threshold, 0.5, 0.05);
}

TEST(Tree, PathPredicatesDescribeLeafRegion) {
  std::vector<LabeledSample> samples;
  xplain::util::Rng rng(3);
  for (int i = 0; i < 600; ++i) {
    double x = rng.uniform(0, 1), y = rng.uniform(0, 1);
    const bool in = x > 0.4 && y <= 0.6;
    samples.push_back({{x, y}, in ? 5.0 : 0.0});
  }
  auto tree = fit_regression_tree(samples);
  std::vector<double> probe = {0.7, 0.3};  // inside the hot region
  auto preds = tree.path_predicates(probe);
  ASSERT_FALSE(preds.empty());
  // Every predicate on the path must hold at the probe...
  for (const auto& h : preds) EXPECT_TRUE(h.satisfied(probe));
  // ...and the leaf must predict the hot value.
  EXPECT_NEAR(tree.predict(probe), 5.0, 1.0);
}

TEST(Tree, RespectsDepthAndLeafLimits) {
  std::vector<LabeledSample> samples;
  xplain::util::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    double x = rng.uniform(0, 1);
    samples.push_back({{x}, std::sin(20 * x)});  // wiggly: wants many splits
  }
  TreeOptions opts;
  opts.max_depth = 3;
  opts.min_samples_leaf = 40;
  auto tree = fit_regression_tree(samples, opts);
  EXPECT_LE(tree.depth(), 3);
  for (const auto& n : tree.nodes()) {
    if (n.feature < 0) {
      EXPECT_GE(n.count, 40);
    }
  }
}

TEST(Tree, EmptyAndConstantInputs) {
  EXPECT_EQ(fit_regression_tree({}).num_nodes(), 1);
  std::vector<LabeledSample> constant(50, {{0.5}, 3.0});
  auto tree = fit_regression_tree(constant);
  EXPECT_EQ(tree.depth(), 0);
  EXPECT_NEAR(tree.predict({0.1}), 3.0, 1e-12);
}

TEST(Tree, GatheredSplitSearchMatchesPartitionReference) {
  // Seeded samples with duplicate x values (a coarse grid), a constant
  // feature, a mirrored feature (1 - x0: its cuts put x0's sides the other
  // way round, so the two tie exactly only while a left side and a right
  // side are scored alike), gaps with many exact sse ties (small integers)
  // or none, sample counts at the min_samples_leaf boundary, and
  // max_thresholds both 1 and above the distinct-value count: every node
  // must equal the per-cut partition search bitwise.
  xplain::util::Rng rng(7);
  int nodes_checked = 0, splits = 0;
  for (int it = 0; it < 240; ++it) {
    TreeOptions opts;
    opts.max_depth = 1 + it % 5;
    opts.min_samples_leaf = std::array<int, 4>{1, 3, 12, 20}[it % 4];
    opts.max_thresholds = std::array<int, 3>{1, 4, 1000}[(it / 4) % 3];
    const int d = 1 + (it / 12) % 3;
    const int n = it % 6 == 0   ? 2 * opts.min_samples_leaf
                  : it % 6 == 1 ? 2 * opts.min_samples_leaf - 1
                                : rng.uniform_int(0, 300);
    const int constant = rng.uniform_int(-1, d - 1);  // -1: none
    const bool mirror = d > 1 && rng.bernoulli(0.5);  // x[d-1] = 1 - x[0]
    const double grid = rng.bernoulli(0.5) ? 0.125 : 1.0 / 1024;
    const bool integer_gaps = rng.bernoulli(0.5);
    std::vector<LabeledSample> samples(n);
    for (auto& s : samples) {
      s.x.resize(d);
      for (int f = 0; f < d; ++f)
        s.x[f] = f == constant ? 0.5
                               : std::round(rng.uniform(0, 1) / grid) * grid;
      if (mirror) s.x[d - 1] = 1.0 - s.x[0];
      const double hot = s.x[0] > 0.4 ? 2.0 : 0.0;
      s.gap = integer_gaps ? hot + rng.uniform_int(0, 1)
                           : hot + rng.normal(0.0, 0.7);
    }
    const RegressionTree tree = fit_regression_tree(samples, opts);
    const auto ref = reference_tree(samples, opts);
    ASSERT_EQ(tree.nodes().size(), ref.size()) << "it " << it;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const auto& a = tree.nodes()[i];
      const auto& b = ref[i];
      EXPECT_EQ(a.feature, b.feature) << "it " << it << " node " << i;
      EXPECT_TRUE(same_bits(a.threshold, b.threshold))
          << "it " << it << " node " << i;
      EXPECT_EQ(a.left, b.left) << "it " << it << " node " << i;
      EXPECT_EQ(a.right, b.right) << "it " << it << " node " << i;
      EXPECT_TRUE(same_bits(a.value, b.value)) << "it " << it << " node " << i;
      EXPECT_EQ(a.count, b.count) << "it " << it << " node " << i;
      splits += a.feature >= 0;
    }
    nodes_checked += static_cast<int>(ref.size());
  }
  // The inputs must exercise the search, not only leaves.
  EXPECT_GT(splits, 400);
  EXPECT_GT(nodes_checked, 1000);
}

TEST(Significance, AcceptsPlantedRegionRejectsEmptyOne) {
  PlantedEvaluator eval;
  Polytope hot;
  hot.box = eval.a_;
  auto rep_hot = check_significance(eval, hot);
  EXPECT_TRUE(rep_hot.significant);
  EXPECT_LT(rep_hot.test.p_value, 0.05);
  EXPECT_GT(rep_hot.mean_gap_inside, rep_hot.mean_gap_outside);

  Polytope cold;
  cold.box = Box{{0.4, 0.4}, {0.55, 0.55}};  // nothing planted here
  auto rep_cold = check_significance(eval, cold);
  EXPECT_FALSE(rep_cold.significant);
}

TEST(Generator, RoughBoxCoversPlantedRegion) {
  PlantedEvaluator eval;
  SearchAnalyzer an;
  SubspaceOptions opts;
  SubspaceGenerator gen(an, opts);
  xplain::util::Rng rng(5);
  Box rough = gen.grow_rough_box(eval, {0.2, 0.75}, 5.0, rng);
  // The rough box must substantially overlap region A and not swallow the
  // whole input space.
  EXPECT_TRUE(rough.contains({0.2, 0.75}));
  EXPECT_LT(rough.volume(), 0.5);
  Box overlap = rough.intersect(eval.a_);
  EXPECT_FALSE(overlap.empty());
  EXPECT_GT(overlap.volume() / eval.a_.volume(), 0.3);
}

TEST(Generator, EarlyDecidedSlicesMatchFullScoring) {
  // Seeds lie inside the input box, at its corners (their slices are
  // clipped) and beyond it (the initial box is empty in some dimension, so
  // the first slices grown from it are empty).
  struct Case {
    std::unique_ptr<GapEvaluator> eval;
    double bad_threshold;
    std::vector<std::vector<double>> seeds;
  };
  std::vector<Case> cases;
  cases.push_back({std::make_unique<PlantedEvaluator>(),
                   5.0,
                   {{0.2, 0.75}, {0.8, 0.2}, {1.0, 1.0}, {1.5, 0.5}}});
  for (int d = 1; d <= 6; ++d)
    cases.push_back({std::make_unique<FieldEvaluator>(d, 100 + d),
                     6.0,
                     {std::vector<double>(d, 4.1), std::vector<double>(d, 0.0),
                      std::vector<double>(d, 8.0),
                      std::vector<double>(d, 11.0)}});
  // dkw_eps for n = 1, 10 and 82 points per slice (dkw_delta = 0.05).
  const std::pair<double, std::size_t> sizes[] = {
      {1.5, 1}, {0.44, 10}, {0.15, 82}};

  bool saved = false;
  for (const auto& c : cases) {
    for (const auto& [eps, n] : sizes) {
      for (double threshold : {0.0, 0.3, 0.6, 1.0}) {
        SubspaceOptions opts;
        opts.dkw_eps = eps;
        opts.density_threshold = threshold;
        ASSERT_EQ(xplain::stats::dkw_sample_count(opts.dkw_eps,
                                                  opts.dkw_delta),
                  n);
        for (std::size_t s = 0; s < c.seeds.size(); ++s) {
          SCOPED_TRACE(c.eval->name() + " d=" +
                       std::to_string(c.eval->dim()) + " n=" +
                       std::to_string(n) + " threshold=" +
                       std::to_string(threshold) + " seed#" +
                       std::to_string(s));
          xplain::util::Rng ref_rng(s + 11), rng(s + 11);
          const ReferenceGrowth ref = reference_rough_box(
              *c.eval, opts, c.seeds[s], c.bad_threshold, ref_rng);
          CountingEvaluator counted(*c.eval);
          SearchAnalyzer an;
          SubspaceGenerator gen(an, opts);
          const Box got =
              gen.grow_rough_box(counted, c.seeds[s], c.bad_threshold, rng);
          EXPECT_TRUE(same_bits(got.lo, ref.box.lo));
          EXPECT_TRUE(same_bits(got.hi, ref.box.hi));
          EXPECT_TRUE(rng.engine() == ref_rng.engine());
          EXPECT_EQ(counted.calls(), gen.trace().gap_evaluations);
          EXPECT_EQ(counted.calls(), ref.settled_calls);
          saved = saved || counted.calls() < ref.full_calls;
        }
      }
    }
  }
  EXPECT_TRUE(saved) << "no configuration settled a slice early";
}

TEST(Generator, FindsBothPlantedSubspaces) {
  PlantedEvaluator eval;
  SearchAnalyzer an;
  SubspaceOptions opts;
  opts.max_subspaces = 6;
  SubspaceGenerator gen(an, opts);
  auto subs = gen.generate(eval, /*min_gap=*/3.0);
  ASSERT_GE(subs.size(), 2u);
  // Each planted region is hit by some subspace seed.
  bool hit_a = false, hit_b = false;
  for (const auto& s : subs) {
    if (eval.a_.contains(s.seed)) hit_a = true;
    if (eval.b_.contains(s.seed)) hit_b = true;
    EXPECT_TRUE(s.significant);
    EXPECT_LT(s.p_value, 0.05);
    EXPECT_TRUE(s.region.contains(s.seed, 1e-6));
  }
  EXPECT_TRUE(hit_a);
  EXPECT_TRUE(hit_b);
}

TEST(Generator, TerminatesWhenNothingIsAdversarial) {
  // Constant-zero gap: the analyzer finds nothing; generate returns empty.
  class ZeroEval : public GapEvaluator {
   public:
    int dim() const override { return 2; }
    Box input_box() const override { return Box{{0, 0}, {1, 1}}; }
    double gap(const std::vector<double>&) const override { return 0.0; }
    std::string name() const override { return "zero"; }
  } eval;
  SearchAnalyzer an;
  SubspaceGenerator gen(an, {});
  auto subs = gen.generate(eval, 1.0);
  EXPECT_TRUE(subs.empty());
  EXPECT_EQ(gen.trace().analyzer_calls, 1);
}

TEST(Generator, ExclusionPreventsRediscovery) {
  PlantedEvaluator eval;
  SearchAnalyzer an;
  SubspaceOptions opts;
  opts.max_subspaces = 8;
  SubspaceGenerator gen(an, opts);
  auto subs = gen.generate(eval, 3.0);
  // No two subspace seeds may land in the same already-found rough box.
  for (std::size_t i = 0; i < subs.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_FALSE(subs[j].region.box.contains(subs[i].seed))
          << "seed " << i << " rediscovered region " << j;
}
