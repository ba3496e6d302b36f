// Batched grids through Engine::run: an 8-job DP+VBP grid is identical on
// 1 and 4 workers (the acceptance criterion: >= 8 instances on 4 workers ==
// the sequential loop), verbatim-seed jobs equal bare run_pipeline calls
// over freshly built instances, and the §5.4 chain family feeds Type-3
// generalization.
#include <gtest/gtest.h>

#include <string>

#include "engine/engine.h"
#include "same_results.h"
#include "scenario/scenario.h"

using namespace xplain;
using same_results::expect_same_pipeline;
using same_results::expect_same_results;

namespace {

scenario::ScenarioSpec line(int n) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kLine;
  s.size = n;
  return s;
}

/// 8 jobs across two families: 4 DP chain-with-detour WANs of growing
/// pinned-path length, 4 First-Fit instances of growing ball count.
ExperimentSpec mixed_grid() {
  ExperimentSpec spec;
  spec.cases = {"demand_pinning_chain", "first_fit"};
  spec.scenarios = {line(2), line(3), line(4), line(5)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 60;
  return spec;
}

}  // namespace

TEST(Batch, FourWorkersMatchSequentialLoop) {
  ExperimentSpec spec = mixed_grid();
  ASSERT_EQ(Engine().expand(spec).size(), 8u);

  spec.workers = 1;
  const auto sequential = Engine().run(spec);
  spec.workers = 4;
  const auto parallel4 = Engine().run(spec);
  for (const auto& j : sequential.jobs) EXPECT_TRUE(j.ok) << j.error;
  expect_same_results(sequential, parallel4);
}

TEST(Batch, MatchesHandRolledSequentialPipelines) {
  // reseed_jobs off: every job runs with the spec's options verbatim, so
  // each one is exactly a bare run_pipeline over a freshly built instance —
  // nothing shared, reordered or lost across workers.
  ExperimentSpec spec = mixed_grid();
  spec.reseed_jobs = false;
  spec.workers = 4;
  const auto res = Engine().run(spec);

  ASSERT_EQ(res.jobs.size(), 8u);
  int total = 0;
  for (const auto& j : res.jobs) {
    ASSERT_TRUE(j.ok) << j.job.label() << ": " << j.error;
    EXPECT_EQ(j.seed, spec.options.seed_salt);
    EXPECT_EQ(j.options_fingerprint, spec.options.fingerprint());
    const auto c = registry().create(j.job.case_name, *j.job.scenario);
    ASSERT_NE(c, nullptr);
    const PipelineResult solo = run_pipeline(*c, spec.options);
    expect_same_pipeline(j.pipeline, solo, j.job.label());
    total += static_cast<int>(solo.subspaces.size());
  }
  EXPECT_EQ(res.total_subspaces(), total);
}

TEST(Batch, FeedsTypeThreeGeneralization) {
  // The paper's §5.4 Type-3 result through Engine::run: over chain length
  // 2..5 x detour capacity {40, 50}, the mined predicates include
  // increasing(pinned path length).
  ExperimentSpec spec;
  spec.cases = {"demand_pinning_chain"};
  for (int len = 2; len <= 5; ++len) {
    for (double detour : {40.0, 50.0}) {
      scenario::ScenarioSpec s = line(len);
      s.capacity = detour;
      spec.scenarios.push_back(s);
    }
  }
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 0;  // Type-3 only needs the gaps
  spec.grammar.p_threshold = 0.2;    // 8 observations: modest power
  spec.workers = 4;
  const auto res = Engine().run(spec);

  ASSERT_EQ(res.trends.observations.size(), 8u);
  bool found_hops = false;
  for (const auto& p : res.trends.predicates)
    if ((p.feature == "pinned_sp_hops" || p.feature == "pinned_sp_max_hops") &&
        p.trend == generalize::Trend::kIncreasing)
      found_hops = true;
  EXPECT_TRUE(found_hops)
      << "increasing(pinned path length) should emerge from the grid";
}
