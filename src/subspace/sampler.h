// Sampling utilities for the adversarial subspace generator: labeled gap
// samples inside boxes and slices.
#pragma once

#include <vector>

#include "analyzer/evaluator.h"
#include "util/random.h"

namespace xplain::subspace {

using analyzer::Box;
using analyzer::GapEvaluator;

struct LabeledSample {
  std::vector<double> x;
  double gap = 0.0;
};

/// Uniform quantized samples in `box` (intersected with the evaluator's
/// input box), labeled with their gap.
std::vector<LabeledSample> sample_box(const GapEvaluator& eval, const Box& box,
                                      std::size_t count, util::Rng& rng);

/// Fraction of samples with gap >= threshold.  The reference slice
/// verdict: grow_rough_box's early-decided slices must reach
/// bad_density(sample_box(...)) >= density_threshold from the same draws.
double bad_density(const std::vector<LabeledSample>& samples,
                   double threshold);

/// Expands `box` by `frac` of its width on every side, clipped to `limit`.
Box inflate(const Box& box, double frac, const Box& limit);

}  // namespace xplain::subspace
