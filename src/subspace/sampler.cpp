#include "subspace/sampler.h"

#include <algorithm>

namespace xplain::subspace {

std::vector<LabeledSample> sample_box(const GapEvaluator& eval, const Box& box,
                                      std::size_t count, util::Rng& rng) {
  Box b = box.intersect(eval.input_box());
  std::vector<LabeledSample> out;
  if (b.empty()) return out;
  out.reserve(count);
  std::vector<double> point;
  for (std::size_t s = 0; s < count; ++s) {
    rng.uniform_point(b.lo, b.hi, point);
    LabeledSample ls;
    ls.x = eval.quantize(point);
    ls.gap = eval.gap(ls.x);
    out.push_back(std::move(ls));
  }
  return out;
}

double bad_density(const std::vector<LabeledSample>& samples,
                   double threshold) {
  if (samples.empty()) return 0.0;
  std::size_t bad = 0;
  for (const auto& s : samples)
    if (s.gap >= threshold) ++bad;
  return static_cast<double>(bad) / static_cast<double>(samples.size());
}

Box inflate(const Box& box, double frac, const Box& limit) {
  Box out = box;
  for (int i = 0; i < box.dim(); ++i) {
    const double w = std::max(box.hi[i] - box.lo[i], 1e-9);
    out.lo[i] = std::max(limit.lo[i], box.lo[i] - frac * w);
    out.hi[i] = std::min(limit.hi[i], box.hi[i] + frac * w);
  }
  return out;
}

}  // namespace xplain::subspace
