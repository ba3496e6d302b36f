#include "generalize/generalizer.h"

#include <algorithm>

namespace xplain::generalize {

GeneralizerResult generalize_batch(const std::vector<xplain::PipelineResult>& results,
                                   const GrammarOptions& grammar,
                                   bool normalize_gap) {
  GeneralizerResult out;
  out.observations.reserve(results.size());
  for (const auto& r : results) {
    if (r.features.empty()) continue;  // case does not describe its instance
    InstanceObservation obs;
    obs.features = r.features;
    // The raw analyzer signal, not just validated subspaces: an instance
    // whose gaps fell below min_gap still contributes its true best gap
    // instead of a trend-muting zero.
    obs.max_gap = std::max(r.max_gap(), r.best_gap_found);
    if (normalize_gap && r.gap_scale > 0) obs.max_gap /= r.gap_scale;
    out.observations.push_back(std::move(obs));
  }
  out.predicates = mine_predicates(out.observations, grammar);
  return out;
}

}  // namespace xplain::generalize
