#include "subspace/subspace_generator.h"

#include <algorithm>
#include <cmath>

#include "stats/dkw.h"
#include "util/logging.h"

namespace xplain::subspace {

bool SubspaceGenerator::slice_is_dense(const analyzer::GapEvaluator& eval,
                                       const Box& slice, std::size_t n,
                                       double bad_threshold, util::Rng& rng) {
  const double threshold = opts_.density_threshold;
  const Box b = slice.intersect(eval.input_box());
  if (b.empty() || n == 0) return 0.0 >= threshold;
  // After k of the n points, `bad` of them bad, the full bad count lies in
  // [bad, bad + (n - k)].  Correctly rounded division is monotone in the
  // numerator, so once bad / n >= threshold, or (bad + n - k) / n <
  // threshold, the full verdict bad_density(...) >= threshold is known.
  const double total = static_cast<double>(n);
  std::size_t bad = 0;
  std::size_t k = 0;
  for (; k < n; ++k) {
    if (static_cast<double>(bad) / total >= threshold) break;
    if (static_cast<double>(bad + (n - k)) / total < threshold) break;
    rng.uniform_point(b.lo, b.hi, point_);
    if (eval.gap(eval.quantize(point_)) >= bad_threshold) ++bad;
  }
  trace_.gap_evaluations += static_cast<long>(k);
  // Draw and drop the unscored points so every later draw is unchanged.
  for (; k < n; ++k) rng.uniform_point(b.lo, b.hi, point_);
  return static_cast<double>(bad) / total >= threshold;
}

Box SubspaceGenerator::grow_rough_box(const analyzer::GapEvaluator& eval,
                                      const std::vector<double>& seed,
                                      double bad_threshold, util::Rng& rng) {
  const Box limit = eval.input_box();
  const int n = limit.dim();
  const std::size_t slice_samples =
      stats::dkw_sample_count(opts_.dkw_eps, opts_.dkw_delta);

  // Initial cube around the seed.
  Box box;
  box.lo.resize(n);
  box.hi.resize(n);
  for (int i = 0; i < n; ++i) {
    const double w = limit.hi[i] - limit.lo[i];
    box.lo[i] = std::max(limit.lo[i], seed[i] - opts_.init_half_width_frac * w);
    box.hi[i] = std::min(limit.hi[i], seed[i] + opts_.init_half_width_frac * w);
  }

  // Slice-by-slice expansion (Fig. 5a): each direction grows independently
  // while its *new slice* keeps a high density of bad samples — the
  // adversarial region need not be uniform around the seed.
  for (int round = 0; round < opts_.max_expansion_rounds; ++round) {
    bool grew = false;
    for (int i = 0; i < n; ++i) {
      const double w = limit.hi[i] - limit.lo[i];
      const double step = opts_.slice_frac * w;
      // Up-slice: [hi_i, hi_i + step], all other dims at the current box.
      if (box.hi[i] < limit.hi[i] - 1e-12) {
        Box slice = box;
        slice.lo[i] = box.hi[i];
        slice.hi[i] = std::min(limit.hi[i], box.hi[i] + step);
        if (slice_is_dense(eval, slice, slice_samples, bad_threshold, rng)) {
          box.hi[i] = slice.hi[i];
          grew = true;
        }
      }
      // Down-slice.
      if (box.lo[i] > limit.lo[i] + 1e-12) {
        Box slice = box;
        slice.hi[i] = box.lo[i];
        slice.lo[i] = std::max(limit.lo[i], box.lo[i] - step);
        if (slice_is_dense(eval, slice, slice_samples, bad_threshold, rng)) {
          box.lo[i] = slice.lo[i];
          grew = true;
        }
      }
    }
    if (!grew) break;
  }
  return box;
}

std::vector<AdversarialSubspace> SubspaceGenerator::generate(
    const analyzer::GapEvaluator& eval, double min_gap) {
  std::vector<AdversarialSubspace> result;
  std::vector<Box> excluded;
  util::Rng rng(opts_.seed);
  trace_ = {};

  for (int iter = 0; iter < opts_.max_subspaces; ++iter) {
    ++trace_.analyzer_calls;
    auto ex = analyzer_.find_adversarial(eval, min_gap, excluded);
    if (!ex) break;  // no adversarial example outside known subspaces
    XPLAIN_INFO << "subspace " << iter << ": seed gap " << ex->gap;

    const double bad_threshold = opts_.bad_gap_fraction * ex->gap;
    Box rough = grow_rough_box(eval, ex->input, bad_threshold, rng);

    // Tree refinement (Fig. 5b): fit on a neighborhood slightly larger than
    // the rough box so the tree sees both sides of the boundary.
    const Box tree_box = inflate(rough, opts_.tree_inflate_frac,
                                 eval.input_box());
    auto samples = sample_box(eval, tree_box, opts_.tree_samples, rng);
    trace_.gap_evaluations += static_cast<long>(samples.size());
    auto tree = fit_regression_tree(samples, opts_.tree);

    AdversarialSubspace sub;
    sub.seed = ex->input;
    sub.seed_gap = ex->gap;
    sub.region.box = rough;
    sub.region.halfspaces = tree.path_predicates(ex->input);

    // Validation (§5.2: report only low-p subspaces as adversarial).
    SignificanceOptions sopts = opts_.significance;
    sopts.seed = rng.engine()();
    auto rep = check_significance(eval, sub.region, sopts);
    trace_.gap_evaluations += 2L * rep.pairs_collected;
    sub.mean_gap_inside = rep.mean_gap_inside;
    sub.mean_gap_outside = rep.mean_gap_outside;
    sub.p_value = rep.test.p_value;
    sub.samples_inside = rep.pairs_collected;
    sub.significant = rep.significant;

    // Exclude the rough box either way (otherwise the analyzer would hand
    // the same seed back and we would loop forever; the paper notes users
    // must bound re-examinations of insignificant regions — we re-examine
    // zero times).
    excluded.push_back(rough);

    if (sub.significant || opts_.keep_insignificant) {
      result.push_back(std::move(sub));
    } else {
      ++trace_.rejected_insignificant;
      XPLAIN_INFO << "subspace " << iter << " rejected (p=" << sub.p_value
                  << ")";
    }
  }
  return result;
}

}  // namespace xplain::subspace
