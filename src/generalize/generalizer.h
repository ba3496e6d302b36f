// The generalizer (paper §5.4): collects (features, worst gap) observations
// across many instances and mines the predicate grammar for statistically
// significant instance-agnostic explanations — the Type-3 output.  The
// instances come from an Engine grid (engine/engine.h), which calls
// generalize_batch over its finished jobs.
#pragma once

#include "generalize/grammar.h"
#include "generalize/instance_generator.h"
#include "xplain/pipeline.h"

namespace xplain::generalize {

struct GeneralizerResult {
  std::vector<InstanceObservation> observations;
  std::vector<Predicate> predicates;
};

/// Type-3 over a batch of pipeline runs: every PipelineResult whose case
/// published features() becomes one observation (the best analyzer gap,
/// normalized by the case's gap_scale), and the grammar is mined across
/// them.  xplain::Engine::run calls this automatically over its finished
/// (case x scenario) grid; run with a low PipelineOptions::min_gap so weak
/// instances contribute their true gaps instead of zeros.
GeneralizerResult generalize_batch(
    const std::vector<xplain::PipelineResult>& results,
    const GrammarOptions& grammar = {}, bool normalize_gap = true);

}  // namespace xplain::generalize
