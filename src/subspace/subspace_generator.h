// The adversarial subspace generator (paper §5.2, Fig. 5):
//
//   1. ask the heuristic analyzer for an adversarial example;
//   2. grow a rough box around it, slice by slice: expand in each direction
//      only while the density of bad samples in the new slice stays high
//      (sample counts per slice from the DKW inequality; a slice stops
//      scoring once its verdict is settled);
//   3. refine the box with the predicates on the regression-tree path to
//      the seed's leaf (Fig. 5b);
//   4. validate with the Wilcoxon significance checker;
//   5. exclude the region and repeat until the analyzer finds nothing new.
#pragma once

#include <vector>

#include "analyzer/analyzer.h"
#include "subspace/regression_tree.h"
#include "subspace/significance.h"

namespace xplain::subspace {

struct SubspaceOptions {
  /// A sample is "bad" when gap >= bad_gap_fraction * seed gap.
  double bad_gap_fraction = 0.5;
  /// Keep expanding a direction while the slice's bad density is >= this.
  /// 0.6 keeps boxes tight enough that non-axis-aligned adversarial sets
  /// (FF's diagonal slabs) still validate as significant.
  double density_threshold = 0.6;
  /// DKW accuracy/confidence for the per-slice density estimate.  They set
  /// the slice's sample count n; n is an upper bound on the slice's gap
  /// calls, since scoring stops once the verdict is settled.
  double dkw_eps = 0.10;
  double dkw_delta = 0.05;
  /// Initial cube half-width and per-step slice thickness, as fractions of
  /// the input box width ("how big we pick our slices ... influences how
  /// many false positives fall into the subspace", §5.2).
  double init_half_width_frac = 0.03;
  double slice_frac = 0.08;
  int max_expansion_rounds = 12;
  /// Regression-tree refinement.
  TreeOptions tree;
  int tree_samples = 400;
  double tree_inflate_frac = 0.35;
  /// Significance checking.
  SignificanceOptions significance;
  /// Outer loop.
  int max_subspaces = 8;
  std::uint64_t seed = 2024;
  /// Keep statistically insignificant subspaces in the output (marked
  /// significant=false) instead of dropping them.
  bool keep_insignificant = false;
};

/// Work accounting for generate() runs, summed per job and per experiment.
/// It is not a result: no summary, fingerprint or golden file carries it.
struct GenerationTrace {
  int analyzer_calls = 0;
  /// Every gap() call the subspace stage makes: slice scoring, tree
  /// samples and significance pairs.  The analyzer's calls are not counted.
  long gap_evaluations = 0;
  int rejected_insignificant = 0;

  GenerationTrace& operator+=(const GenerationTrace& o) {
    analyzer_calls += o.analyzer_calls;
    gap_evaluations += o.gap_evaluations;
    rejected_insignificant += o.rejected_insignificant;
    return *this;
  }
};

class SubspaceGenerator {
 public:
  SubspaceGenerator(analyzer::HeuristicAnalyzer& analyzer,
                    SubspaceOptions opts = {})
      : analyzer_(analyzer), opts_(opts) {}

  /// Runs the full loop; returns the validated subspaces.
  std::vector<AdversarialSubspace> generate(const analyzer::GapEvaluator& eval,
                                            double min_gap);

  const GenerationTrace& trace() const { return trace_; }

  /// Exposed for tests/benches: grow the rough box around one seed.  Each
  /// slice draws dkw_sample_count(dkw_eps, dkw_delta) = n points from `rng`
  /// and makes at most n gap calls: it stops scoring once the density
  /// verdict can no longer change.  Boxes and the stream's end state equal
  /// scoring every point.
  Box grow_rough_box(const analyzer::GapEvaluator& eval,
                     const std::vector<double>& seed, double bad_threshold,
                     util::Rng& rng);

 private:
  /// Whether at least density_threshold of `n` quantized uniform points in
  /// `slice` (clipped to the input box) have gap >= bad_threshold: the
  /// verdict bad_density(sample_box(...)) >= density_threshold gives, from
  /// the same draws.  Scoring stops once the verdict is settled; the
  /// remaining points are still drawn, so `rng` ends where sample_box
  /// leaves it.  Adds the gap calls made to trace_.gap_evaluations.
  bool slice_is_dense(const analyzer::GapEvaluator& eval, const Box& slice,
                      std::size_t n, double bad_threshold, util::Rng& rng);

  analyzer::HeuristicAnalyzer& analyzer_;
  SubspaceOptions opts_;
  GenerationTrace trace_;
  std::vector<double> point_;  // slice_is_dense's draw, reused across slices
};

}  // namespace xplain::subspace
