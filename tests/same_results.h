// Bitwise comparison of pipeline and experiment results, shared by the
// Engine grid tests in test_engine and test_batch.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "engine/engine.h"

namespace xplain::same_results {

/// Bitwise equality of two pipeline results (everything but wall clocks).
inline void expect_same_pipeline(const PipelineResult& a,
                                 const PipelineResult& b,
                                 const std::string& what) {
  EXPECT_EQ(a.case_name, b.case_name) << what;
  EXPECT_EQ(a.best_gap_found, b.best_gap_found) << what;
  ASSERT_EQ(a.subspaces.size(), b.subspaces.size()) << what;
  for (std::size_t s = 0; s < a.subspaces.size(); ++s) {
    const auto& sa = a.subspaces[s];
    const auto& sb = b.subspaces[s];
    EXPECT_EQ(sa.seed, sb.seed) << what << " subspace " << s;
    EXPECT_EQ(sa.seed_gap, sb.seed_gap) << what << " subspace " << s;
    EXPECT_EQ(sa.p_value, sb.p_value) << what << " subspace " << s;
    EXPECT_EQ(sa.region.box.lo, sb.region.box.lo) << what;
    EXPECT_EQ(sa.region.box.hi, sb.region.box.hi) << what;
    EXPECT_EQ(sa.significant, sb.significant) << what;
  }
  ASSERT_EQ(a.explanations.size(), b.explanations.size()) << what;
  for (std::size_t e = 0; e < a.explanations.size(); ++e) {
    EXPECT_EQ(a.explanations[e].samples_used, b.explanations[e].samples_used)
        << what;
    ASSERT_EQ(a.explanations[e].edges.size(), b.explanations[e].edges.size())
        << what;
    for (std::size_t k = 0; k < a.explanations[e].edges.size(); ++k)
      EXPECT_EQ(a.explanations[e].edges[k].heat,
                b.explanations[e].edges[k].heat)
          << what << " explanation " << e << " edge " << k;
  }
  EXPECT_EQ(a.features, b.features) << what;
  EXPECT_EQ(a.gap_scale, b.gap_scale) << what;
  EXPECT_EQ(a.trace.analyzer_calls, b.trace.analyzer_calls) << what;
  EXPECT_EQ(a.trace.gap_evaluations, b.trace.gap_evaluations) << what;
}

inline void expect_same_results(const ExperimentResult& a,
                                const ExperimentResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& ra = a.jobs[i];
    const auto& rb = b.jobs[i];
    EXPECT_EQ(ra.job.label(), rb.job.label()) << "job " << i;
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.error, rb.error);
    EXPECT_EQ(ra.seed, rb.seed);
    EXPECT_EQ(ra.options_fingerprint, rb.options_fingerprint);
    expect_same_pipeline(ra.pipeline, rb.pipeline, "job " + std::to_string(i));
  }
  EXPECT_EQ(a.trace.analyzer_calls, b.trace.analyzer_calls);
  EXPECT_EQ(a.trace.gap_evaluations, b.trace.gap_evaluations);
  ASSERT_EQ(a.trends.predicates.size(), b.trends.predicates.size());
  for (std::size_t p = 0; p < a.trends.predicates.size(); ++p) {
    EXPECT_EQ(a.trends.predicates[p].to_string(),
              b.trends.predicates[p].to_string());
    EXPECT_DOUBLE_EQ(a.trends.predicates[p].rho, b.trends.predicates[p].rho);
    EXPECT_DOUBLE_EQ(a.trends.predicates[p].p_value,
                     b.trends.predicates[p].p_value);
  }
}

}  // namespace xplain::same_results
