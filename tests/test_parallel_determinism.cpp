// Bitwise determinism of the parallel sampling stages: explain_subspace,
// check_significance, and the SearchAnalyzer presample must produce
// identical results for any worker count (1 / 2 / 8).  This is the contract
// util::parallel_chunks documents — parallelism changes wall clock, never
// the answer — and it is what keeps Engine::run reproducible end to end.
#include <gtest/gtest.h>

#include <cstdlib>

#include "analyzer/search_analyzer.h"
#include "explain/explainer.h"
#include "subspace/significance.h"
#include "util/parallel.h"
#include "xplain/case.h"

namespace {

using namespace xplain;

std::shared_ptr<const HeuristicCase> dp_case() {
  auto c = registry().find("demand_pinning");
  EXPECT_NE(c, nullptr);
  return c;
}

subspace::Polytope central_region(const analyzer::GapEvaluator& eval) {
  // A mid-box region (no halfspaces) so rejection sampling accepts most
  // draws but the contains() path still runs.
  subspace::Polytope region;
  region.box = eval.input_box();
  for (int i = 0; i < region.box.dim(); ++i) {
    const double w = region.box.hi[i] - region.box.lo[i];
    region.box.lo[i] += 0.25 * w;
    region.box.hi[i] -= 0.15 * w;
  }
  return region;
}

}  // namespace

TEST(ParallelDeterminism, ExplainSubspaceBitwiseEqualAcrossWorkerCounts) {
  auto cp = dp_case();
  const HeuristicCase& c = *cp;
  auto eval = c.make_evaluator();
  auto oracle = c.make_oracle();
  const subspace::Polytope region = central_region(*eval);

  explain::ExplainOptions base;
  base.samples = 400;
  base.seed = 12345;

  std::vector<explain::Explanation> runs;
  for (int workers : {1, 2, 8}) {
    explain::ExplainOptions opts = base;
    opts.workers = workers;
    runs.push_back(
        explain::explain_subspace(*eval, region, c.network(), oracle, opts));
  }
  ASSERT_GT(runs[0].samples_used, 0);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[0].samples_used, runs[r].samples_used);
    ASSERT_EQ(runs[0].edges.size(), runs[r].edges.size());
    for (std::size_t e = 0; e < runs[0].edges.size(); ++e) {
      EXPECT_EQ(runs[0].edges[e].both, runs[r].edges[e].both) << "edge " << e;
      EXPECT_EQ(runs[0].edges[e].benchmark_only, runs[r].edges[e].benchmark_only)
          << "edge " << e;
      EXPECT_EQ(runs[0].edges[e].heuristic_only, runs[r].edges[e].heuristic_only)
          << "edge " << e;
      EXPECT_EQ(runs[0].edges[e].neither, runs[r].edges[e].neither)
          << "edge " << e;
      // Heat is derived from the integer counts: bitwise equality expected.
      EXPECT_EQ(runs[0].edges[e].heat, runs[r].edges[e].heat) << "edge " << e;
    }
  }
}

TEST(ParallelDeterminism, SignificanceBitwiseEqualAcrossWorkerCounts) {
  auto cp = dp_case();
  const HeuristicCase& c = *cp;
  auto eval = c.make_evaluator();
  const subspace::Polytope region = central_region(*eval);

  std::vector<subspace::SignificanceReport> runs;
  for (int workers : {1, 2, 8}) {
    subspace::SignificanceOptions opts;
    opts.pairs = 80;
    opts.seed = 99;
    opts.workers = workers;
    runs.push_back(subspace::check_significance(*eval, region, opts));
  }
  ASSERT_GT(runs[0].pairs_collected, 0);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[0].pairs_collected, runs[r].pairs_collected);
    EXPECT_EQ(runs[0].mean_gap_inside, runs[r].mean_gap_inside);
    EXPECT_EQ(runs[0].mean_gap_outside, runs[r].mean_gap_outside);
    EXPECT_EQ(runs[0].test.p_value, runs[r].test.p_value);
    EXPECT_EQ(runs[0].significant, runs[r].significant);
  }
}

TEST(ParallelDeterminism, ResolveWorkersHonorsEnvOverride) {
  // RAII guard: whatever happens, leave the env as we found it.
  struct EnvGuard {
    ~EnvGuard() { unsetenv("XPLAIN_WORKERS"); }
  } guard;

  setenv("XPLAIN_WORKERS", "3", 1);
  EXPECT_EQ(util::resolve_workers(0), 3);
  EXPECT_EQ(util::resolve_workers(-1), 3);
  // An explicit positive count always wins over the environment.
  EXPECT_EQ(util::resolve_workers(2), 2);
  // Garbage and non-positive values fall back to the hardware default.
  setenv("XPLAIN_WORKERS", "banana", 1);
  EXPECT_GE(util::resolve_workers(0), 1);
  setenv("XPLAIN_WORKERS", "0", 1);
  EXPECT_GE(util::resolve_workers(0), 1);
  setenv("XPLAIN_WORKERS", "-4", 1);
  EXPECT_GE(util::resolve_workers(0), 1);
}

TEST(ParallelDeterminism, EnvWorkerOverrideDoesNotChangeResults) {
  // workers = 0 resolves through XPLAIN_WORKERS; per the parallel contract
  // the explanation must stay bitwise identical to an explicit pool size.
  auto cp = dp_case();
  const HeuristicCase& c = *cp;
  auto eval = c.make_evaluator();
  auto oracle = c.make_oracle();
  const subspace::Polytope region = central_region(*eval);

  explain::ExplainOptions opts;
  opts.samples = 200;
  opts.seed = 777;
  opts.workers = 4;
  const auto expected =
      explain::explain_subspace(*eval, region, c.network(), oracle, opts);

  struct EnvGuard {
    ~EnvGuard() { unsetenv("XPLAIN_WORKERS"); }
  } guard;
  setenv("XPLAIN_WORKERS", "2", 1);
  opts.workers = 0;  // resolves to the env override
  const auto via_env =
      explain::explain_subspace(*eval, region, c.network(), oracle, opts);

  ASSERT_EQ(expected.samples_used, via_env.samples_used);
  ASSERT_EQ(expected.edges.size(), via_env.edges.size());
  for (std::size_t e = 0; e < expected.edges.size(); ++e) {
    EXPECT_EQ(expected.edges[e].heat, via_env.edges[e].heat) << "edge " << e;
    EXPECT_EQ(expected.edges[e].both, via_env.edges[e].both) << "edge " << e;
  }
}

TEST(ParallelDeterminism, SearchAnalyzerBitwiseEqualAcrossWorkerCounts) {
  auto cp = dp_case();
  const HeuristicCase& c = *cp;
  auto eval = c.make_evaluator();

  std::vector<std::optional<analyzer::AdversarialExample>> runs;
  for (int workers : {1, 2, 8}) {
    analyzer::SearchOptions opts;
    opts.workers = workers;
    analyzer::SearchAnalyzer an(opts);
    runs.push_back(an.find_adversarial(*eval, 1.0, {}));
  }
  ASSERT_TRUE(runs[0].has_value());
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_TRUE(runs[r].has_value());
    EXPECT_EQ(runs[0]->gap, runs[r]->gap);
    EXPECT_EQ(runs[0]->input, runs[r]->input);
  }
}
