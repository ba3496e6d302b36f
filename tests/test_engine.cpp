// Experiment engine: grid expansion semantics, bitwise determinism across
// XPLAIN_WORKERS settings (the acceptance criterion: a >= 6-job grid is
// identical for any worker count), ExperimentResult JSON round-trips, the
// wcmp-over-corpus Type-3 path, loud failure for jobs that cannot build or
// throw, and the JobRunner's instance memo (one build per grid cell,
// nothing left alive after the run). The batch-grid properties (8-job
// DP+VBP grid, verbatim seeds, chain-family Type-3) live in test_batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cases/ff_case.h"
#include "counted_case.h"
#include "engine/engine.h"
#include "same_results.h"
#include "scenario/scenario.h"
#include "util/json.h"

using namespace xplain;
using same_results::expect_same_results;

namespace {

scenario::ScenarioSpec line(int n) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kLine;
  s.size = n;
  return s;
}

scenario::ScenarioSpec star(int n) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kStar;
  s.size = n;
  return s;
}

scenario::ScenarioSpec fat_tree(int k, std::uint64_t seed = 1) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kFatTree;
  s.size = k;
  s.seed = seed;
  return s;
}

/// A cheap >= 6-job grid: two VBP cases and the DP chain family over three
/// scenario sizes (small instances, analyzer-dominated cost).
ExperimentSpec small_grid() {
  ExperimentSpec spec;
  spec.cases = {"first_fit", "demand_pinning_chain"};
  spec.scenarios = {line(3), line(4), line(5)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 60;
  spec.grammar.p_threshold = 0.5;
  return spec;
}

struct EnvGuard {
  ~EnvGuard() { unsetenv("XPLAIN_WORKERS"); }
};

std::mutex g_gap_threads_mu;
std::set<std::thread::id> g_gap_threads;

/// First-Fit whose evaluators record every thread that calls gap().
class GapThreadsEvaluator : public cases::VbpGapEvaluator {
 public:
  using VbpGapEvaluator::VbpGapEvaluator;
  double gap(const std::vector<double>& x) const override {
    {
      std::lock_guard<std::mutex> lock(g_gap_threads_mu);
      g_gap_threads.insert(std::this_thread::get_id());
    }
    return VbpGapEvaluator::gap(x);
  }
};

class GapThreadsCase : public cases::VbpCase {
 public:
  using VbpCase::VbpCase;
  std::unique_ptr<analyzer::GapEvaluator> make_evaluator() const override {
    return std::make_unique<GapThreadsEvaluator>(instance(), heuristic());
  }
};

}  // namespace

TEST(Engine, ExpandIsTheCanonicalGridOrder) {
  ExperimentSpec spec;
  spec.cases = {"a", "b"};
  spec.scenarios = {line(3), star(4)};
  const auto jobs = Engine().expand(spec);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].label(), "a@line_n3_s1");
  EXPECT_EQ(jobs[1].label(), "a@star_n4_s1");
  EXPECT_EQ(jobs[2].label(), "b@line_n3_s1");
  EXPECT_EQ(jobs[3].label(), "b@star_n4_s1");
  for (int i = 0; i < 4; ++i) EXPECT_EQ(jobs[i].index, i);

  // Empty grid: one default-instance job per case.
  spec.scenarios.clear();
  const auto defaults = Engine().expand(spec);
  ASSERT_EQ(defaults.size(), 2u);
  EXPECT_EQ(defaults[0].label(), "a@default");
  EXPECT_FALSE(defaults[0].scenario.has_value());
}

TEST(Engine, ExpandPutsOptionVariantsInnermost) {
  ExperimentSpec spec;
  spec.cases = {"a", "b"};
  spec.scenarios = {line(3)};
  spec.option_variants.resize(2);
  spec.option_variants[0].subspace.max_subspaces = 1;
  spec.option_variants[1].subspace.max_subspaces = 3;
  const auto jobs = Engine().expand(spec);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].label(), "a@line_n3_s1#o0");
  EXPECT_EQ(jobs[1].label(), "a@line_n3_s1#o1");
  EXPECT_EQ(jobs[2].label(), "b@line_n3_s1#o0");
  EXPECT_EQ(jobs[3].label(), "b@line_n3_s1#o1");
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].option_index, i % 2);
    // The variant is recoverable from the index alone — the purity property
    // the server's job replay leans on.
    std::uint64_t seed = 0;
    const PipelineOptions o = derived_job_options(spec, jobs[i].index, &seed);
    ExperimentSpec base = spec;
    base.options = spec.option_variants[i % 2];
    base.option_variants.clear();
    EXPECT_EQ(o.fingerprint(),
              derived_job_options(base, jobs[i].index).fingerprint())
        << "job " << i;
  }
  // No variants: no #o suffix and option_index stays -1.
  spec.option_variants.clear();
  const auto flat = Engine().expand(spec);
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_EQ(flat[0].label(), "a@line_n3_s1");
  EXPECT_EQ(flat[0].option_index, -1);
  // Variants also multiply default-instance jobs (empty scenario grid).
  spec.scenarios.clear();
  spec.option_variants.resize(3);
  EXPECT_EQ(Engine().expand(spec).size(), 6u);
}

TEST(Engine, OptionAxisRunsEveryVariant) {
  // One case, one scenario, two variants: analyzer budget 1 vs 2 subspaces
  // and explainer off vs on — the fuzzer's cheap-probe/deep-run split in
  // miniature.
  ExperimentSpec spec;
  spec.cases = {"demand_pinning_chain"};
  spec.scenarios = {line(4)};
  spec.run_generalizer = false;
  spec.option_variants.resize(2);
  spec.option_variants[0].subspace.max_subspaces = 1;
  spec.option_variants[0].explain.samples = 0;
  spec.option_variants[1].subspace.max_subspaces = 2;
  spec.option_variants[1].explain.samples = 60;
  const auto res = Engine().run(spec);
  ASSERT_EQ(res.jobs.size(), 2u);
  for (const auto& j : res.jobs) EXPECT_TRUE(j.ok) << j.error;
  // Each job carries its own variant's fingerprint (distinct cache keys).
  EXPECT_EQ(res.jobs[0].options_fingerprint,
            apply_seed_salt(spec.option_variants[0], res.jobs[0].seed)
                .fingerprint());
  EXPECT_EQ(res.jobs[1].options_fingerprint,
            apply_seed_salt(spec.option_variants[1], res.jobs[1].seed)
                .fingerprint());
  EXPECT_NE(res.jobs[0].options_fingerprint, res.jobs[1].options_fingerprint);
  // The probe variant (samples=0) measures gaps without sampling stories.
  for (const auto& e : res.jobs[0].pipeline.explanations)
    EXPECT_EQ(e.samples_used, 0);
  EXPECT_LE(res.jobs[0].pipeline.subspaces.size(), 1u);
  // Both probed the same instance, so both report identical features.
  EXPECT_EQ(res.jobs[0].pipeline.features, res.jobs[1].pipeline.features);
  // The scenario instance is built once and shared across the variant axis.
  EXPECT_EQ(res.case_builds, 1);
}

TEST(Engine, GridIsBitwiseDeterministicAcrossWorkerCounts) {
  const auto spec = small_grid();  // workers = 0: resolves via env
  ASSERT_GE(Engine().expand(spec).size(), 6u);

  EnvGuard guard;
  setenv("XPLAIN_WORKERS", "1", 1);
  const auto sequential = Engine().run(spec);
  setenv("XPLAIN_WORKERS", "4", 1);
  const auto parallel4 = Engine().run(spec);
  expect_same_results(sequential, parallel4);

  // An explicit worker count gives the same results again.
  unsetenv("XPLAIN_WORKERS");
  ExperimentSpec explicit_spec = spec;
  explicit_spec.workers = 3;
  expect_same_results(sequential, Engine().run(explicit_spec));
}

TEST(Engine, PerJobLpCountersAreExactUnderConcurrentWorkers) {
  // Per-job lp_solves / lp_iterations come from thread-inclusive counter
  // deltas (solver::lp_counters): with one worker per job slot they must be
  // identical to the sequential run — no bleed between concurrent jobs —
  // and nonzero for any job that actually solved LPs.
  const auto spec = small_grid();

  EnvGuard guard;
  setenv("XPLAIN_WORKERS", "1", 1);
  const auto sequential = Engine().run(spec).summary();
  setenv("XPLAIN_WORKERS", "4", 1);
  const auto parallel4 = Engine().run(spec).summary();

  ASSERT_EQ(sequential.jobs.size(), parallel4.jobs.size());
  long total_solves = 0;
  long total_priced = 0;
  for (std::size_t i = 0; i < sequential.jobs.size(); ++i) {
    EXPECT_EQ(sequential.jobs[i].lp_solves, parallel4.jobs[i].lp_solves)
        << "job " << i;
    EXPECT_EQ(sequential.jobs[i].lp_iterations,
              parallel4.jobs[i].lp_iterations)
        << "job " << i;
    EXPECT_EQ(sequential.jobs[i].lp_columns_priced,
              parallel4.jobs[i].lp_columns_priced)
        << "job " << i;
    EXPECT_EQ(sequential.jobs[i].lp_candidate_refills,
              parallel4.jobs[i].lp_candidate_refills)
        << "job " << i;
    total_solves += sequential.jobs[i].lp_solves;
    total_priced += sequential.jobs[i].lp_columns_priced;
  }
  EXPECT_GT(total_solves, 0);
  // Any pivot prices at least one column, so the pricing tally is live.
  EXPECT_GT(total_priced, 0);
  // The experiment-level snapshot equals the per-job sum: nothing leaked
  // into (or out of) the job windows.
  EXPECT_EQ(sequential.lp_solves, total_solves);
  EXPECT_EQ(sequential.lp_columns_priced, total_priced);
  long parallel_total = 0;
  long parallel_priced = 0;
  for (const auto& j : parallel4.jobs) {
    parallel_total += j.lp_solves;
    parallel_priced += j.lp_columns_priced;
  }
  EXPECT_EQ(parallel4.lp_solves, parallel_total);
  EXPECT_EQ(parallel4.lp_columns_priced, parallel_priced);
}

TEST(Engine, StreamsEveryJobThroughTheCallback) {
  const auto spec = small_grid();
  std::vector<std::string> labels;
  auto res = Engine().run(spec, [&](const JobResult& j) {
    labels.push_back(j.job.label());
  });
  ASSERT_EQ(labels.size(), res.jobs.size());
  // Completion order is scheduling-dependent; the set of labels is not.
  std::sort(labels.begin(), labels.end());
  std::vector<std::string> expected;
  for (const auto& j : res.jobs) expected.push_back(j.job.label());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(labels, expected);
}

TEST(Engine, SeedDecorrelatesReplications) {
  auto spec = small_grid();
  spec.cases = {"demand_pinning_chain"};
  const auto a = Engine().run(spec);
  auto spec_b = spec;
  spec_b.seed = 99;
  const auto b = Engine().run(spec_b);
  // Same grid, different experiment seed: at least one job's analyzer
  // trace must differ (the RNG streams are decorrelated).
  bool any_difference = false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i)
    if (a.jobs[i].pipeline.trace.gap_evaluations !=
        b.jobs[i].pipeline.trace.gap_evaluations)
      any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(Engine, WcmpOverCorpusFeedsTypeThree) {
  // The generic factory path: WCMP sweeps scenarios with no bespoke
  // lb_case_factory adapter — features flow into generalize_batch inside
  // Engine::run.
  ExperimentSpec spec;
  spec.cases = {"wcmp"};
  spec.scenarios = {fat_tree(4), line(6), star(8)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 0;  // Type-3 only needs the gaps
  spec.grammar.p_threshold = 1.1;    // keep every mined trend: smoke only
  auto res = Engine().run(spec);

  ASSERT_EQ(res.jobs.size(), 3u);
  for (const auto& j : res.jobs) {
    EXPECT_TRUE(j.ok) << j.job.label() << ": " << j.error;
    EXPECT_FALSE(j.pipeline.features.empty()) << j.job.label();
    EXPECT_GT(j.pipeline.features.at("num_commodities"), 0.0);
  }
  // Every ok job with features becomes one Type-3 observation.
  EXPECT_EQ(res.trends.observations.size(), 3u);
  // The fat-tree job must show a real WCMP-vs-optimal gap.
  EXPECT_GT(res.jobs[0].pipeline.best_gap_found, 0.0);
}

TEST(Engine, UnknownAndDefaultOnlyCasesFailLoudly) {
  const std::string name = "engine_default_only_case";
  registry().add(name, [] {
    vbp::VbpInstance inst;
    inst.num_balls = 3;
    inst.num_bins = 2;
    inst.dims = 1;
    inst.capacity = 1.0;
    return std::make_shared<cases::VbpCase>(inst);
  });

  ExperimentSpec spec;
  spec.cases = {"no_such_case", name};
  spec.scenarios = {line(4)};
  spec.options.explain.samples = 0;
  spec.run_generalizer = false;
  auto res = Engine().run(spec);
  ASSERT_EQ(res.jobs.size(), 2u);
  EXPECT_FALSE(res.jobs[0].ok);
  EXPECT_EQ(res.jobs[0].error, "unknown case");
  EXPECT_FALSE(res.jobs[1].ok);
  EXPECT_NE(res.jobs[1].error.find("default-only"), std::string::npos);
  // The same case still runs fine on its default instance.
  ExperimentSpec default_spec;
  default_spec.cases = {name};
  default_spec.options.explain.samples = 0;
  default_spec.run_generalizer = false;
  auto ok_res = Engine().run(default_spec);
  ASSERT_EQ(ok_res.jobs.size(), 1u);
  EXPECT_TRUE(ok_res.jobs[0].ok);
  // Failed jobs still carry their derived seed and options fingerprint.
  for (const auto& j : res.jobs) {
    std::uint64_t seed = 0;
    const PipelineOptions o = derived_job_options(spec, j.job.index, &seed);
    EXPECT_EQ(j.seed, seed);
    EXPECT_EQ(j.options_fingerprint, o.fingerprint());
  }
}

TEST(Engine, ThrowingCaseBuildFailsOnlyItsOwnJobs) {
  registry().add("engine_throwing_case",
                 CaseRegistry::Factory(
                     [](const scenario::ScenarioSpec*)
                         -> std::shared_ptr<HeuristicCase> {
                       throw std::runtime_error("injected case-build failure");
                     }));
  // first_fit comes first, so its jobs keep their grid indices (and seeds)
  // in the reference grid without the throwing case.
  ExperimentSpec reference;
  reference.cases = {"first_fit"};
  reference.scenarios = {line(3), line(4)};
  reference.options.min_gap = 1.0;
  reference.options.subspace.max_subspaces = 1;
  reference.options.explain.samples = 40;
  reference.grammar.p_threshold = 1.1;
  reference.workers = 1;
  const ExperimentSummary want = Engine().run(reference).summary();
  ASSERT_EQ(want.jobs.size(), 2u);

  for (const int workers : {1, 4}) {
    ExperimentSpec spec = reference;
    spec.cases.push_back("engine_throwing_case");
    spec.workers = workers;
    const ExperimentResult res = Engine().run(spec);
    ASSERT_EQ(res.jobs.size(), 4u) << workers;
    for (std::size_t i = 2; i < 4; ++i) {
      EXPECT_FALSE(res.jobs[i].ok) << workers;
      EXPECT_EQ(res.jobs[i].error, "job threw: injected case-build failure")
          << workers;
    }
    // Each job of the throwing cell retried the build.
    EXPECT_EQ(res.case_builds, 4) << workers;
    ExperimentSummary got = res.summary();
    for (std::size_t i = 0; i < 2; ++i) {
      got.jobs[i].wall_seconds = want.jobs[i].wall_seconds;
      EXPECT_TRUE(got.jobs[i] == want.jobs[i]) << workers << " job " << i;
    }
    EXPECT_TRUE(got.trends == want.trends) << workers;
    EXPECT_EQ(got.observations, want.observations) << workers;
  }
}

TEST(Engine, AutoPoolsRunSingleThreadedUnderConcurrentJobs) {
  registry().add("engine_gap_threads_case",
                 CaseRegistry::Factory(
                     [](const scenario::ScenarioSpec* spec)
                         -> std::shared_ptr<HeuristicCase> {
                       return std::make_shared<GapThreadsCase>(
                           spec ? cases::VbpCase::scenario_instance(*spec)
                                : cases::VbpCase::paper_instance());
                     }));
  EnvGuard guard;
  setenv("XPLAIN_WORKERS", "4", 1);
  ExperimentSpec spec;
  spec.cases = {"engine_gap_threads_case"};
  spec.scenarios = {line(3), line(4), line(5), line(6)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.subspace.significance.workers = 0;  // "auto"
  spec.options.explain.samples = 40;
  spec.workers = 2;
  {
    std::lock_guard<std::mutex> lock(g_gap_threads_mu);
    g_gap_threads.clear();
  }
  const ExperimentResult res = Engine().run(spec);
  ASSERT_EQ(res.jobs.size(), 4u);
  int checked = 0;
  for (const JobResult& j : res.jobs) {
    ASSERT_TRUE(j.ok) << j.error;
    for (const auto& s : j.pipeline.subspaces)
      if (s.samples_inside > 0) ++checked;
  }
  ASSERT_GT(checked, 0) << "no significance check ran";
  // Two job workers; neither auto pool may fan out on top of them.
  std::lock_guard<std::mutex> lock(g_gap_threads_mu);
  EXPECT_LE(g_gap_threads.size(), 2u);
}

TEST(Engine, InstancesAreBuiltOncePerCellAndFreedByTheEnd) {
  const std::string& name = memo_test::counted_case();
  ExperimentSpec spec;
  spec.cases = {name};
  spec.scenarios = {line(3), line(4), line(3), line(4), line(3)};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 0;
  spec.run_generalizer = false;
  for (const int workers : {1, 4}) {
    spec.workers = workers;
    const int built_before = memo_test::built_count();
    const ExperimentResult res = Engine().run(spec);
    for (const auto& j : res.jobs) EXPECT_TRUE(j.ok) << j.error;
    EXPECT_EQ(res.case_builds, 2) << workers;
    EXPECT_EQ(memo_test::built_count() - built_before, 2) << workers;
    EXPECT_EQ(memo_test::live_count(), 0)
        << "an instance outlived Engine::run at " << workers << " workers";
  }
}

TEST(Engine, ScenariosWithCollidingLabelsBuildTwoInstances) {
  // capacity is not part of a line spec's name(), but it is part of its
  // cache_key(): the memo must keep the two cells apart.
  const auto spec_a = line(6);
  auto spec_b = line(6);
  spec_b.capacity = 55.0;
  ASSERT_EQ(spec_a.name(), spec_b.name());
  ASSERT_NE(spec_a.cache_key(), spec_b.cache_key());

  ExperimentSpec spec;
  spec.cases = {"demand_pinning"};
  spec.scenarios = {spec_a, spec_b, spec_a};
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.explain.samples = 0;
  spec.run_generalizer = false;
  spec.workers = 3;
  const ExperimentResult res = Engine().run(spec);
  ASSERT_EQ(res.jobs.size(), 3u);
  for (const auto& j : res.jobs) EXPECT_TRUE(j.ok) << j.error;
  EXPECT_EQ(res.case_builds, 2);
  EXPECT_NE(res.jobs[0].job.label(), res.jobs[1].job.label());
}

TEST(Engine, ExperimentSummaryJsonRoundTripsExactly) {
  // Synthetic summary with adversarial content: quotes, newlines,
  // non-representable-in-decimal doubles, empty and missing fields.
  ExperimentSummary s;
  JobSummary j;
  j.case_name = "wcmp";
  j.scenario = "fat_tree_k4_s1";
  j.index = 0;
  j.ok = true;
  j.subspaces = 2;
  j.significant = 1;
  j.best_gap_found = 1.0 / 3.0;
  j.max_seed_gap = 66.04357334190792;
  j.gap_scale = 100.0;
  j.wall_seconds = 0.123456789123456789;
  j.lp_solves = 12345;
  j.lp_iterations = 987654321;
  j.lp_columns_priced = 31415926535;
  j.lp_candidate_refills = 271828;
  j.features = {{"num_commodities", 8.0}, {"skew_span", 0.75}};
  j.seed = 18446744073709551557ull;
  j.options_fingerprint = "pf1;mg=4607182418800017408";
  s.jobs.push_back(j);
  JobSummary bad;
  bad.case_name = "odd \"name\"\nwith newline";
  bad.index = 1;
  bad.ok = false;
  bad.error = "case cannot build from a scenario (default-only registration)";
  s.jobs.push_back(bad);
  TrendSummary t;
  t.predicate = "increasing(pinned_sp_hops)";
  t.feature = "pinned_sp_hops";
  t.increasing = true;
  t.rho = 0.9784922871473329;
  t.p_value = 1.7481490558e-08;
  t.support = 12;
  s.trends.push_back(t);
  s.observations = 12;
  s.wall_seconds = 7.739930840000001;
  s.lp_solves = 112202;
  s.lp_iterations = 713712;
  s.lp_columns_priced = 8675309;
  s.lp_candidate_refills = 424242;

  const std::string json = s.to_json();
  const auto parsed = ExperimentSummary::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(s == *parsed);
  // And the serialization itself is stable under a round trip.
  EXPECT_EQ(json, parsed->to_json());

  // The wire format itself, key set and order included: a symmetric rename
  // or reorder passes the round trip above but not this.  Cache journals
  // and baselines hold exactly this text, so parsing it must give back `s`.
  const std::string wire =
      R"json({"jobs":[{"case":"wcmp","scenario":"fat_tree_k4_s1","index":0)json"
      R"json(,"ok":true,"subspaces":2,"significant":1)json"
      R"json(,"best_gap_found":0.3333333333333333)json"
      R"json(,"max_seed_gap":66.04357334190792,"gap_scale":100)json"
      R"json(,"wall_seconds":0.12345678912345678,"lp_solves":12345)json"
      R"json(,"lp_iterations":987654321,"lp_columns_priced":31415926535)json"
      R"json(,"lp_candidate_refills":271828,"seed":"18446744073709551557")json"
      R"json(,"options_fingerprint":"pf1;mg=4607182418800017408")json"
      R"json(,"features":{"num_commodities":8)json"
      R"json(,"skew_span":0.75}},{"case":"odd \"name\"\nwith newline")json"
      R"json(,"scenario":null,"index":1,"ok":false)json"
      R"json(,"error":"case cannot build from a scenario (default-only registration)")json"
      R"json(,"subspaces":0,"significant":0,"best_gap_found":0)json"
      R"json(,"max_seed_gap":0,"gap_scale":1,"wall_seconds":0,"lp_solves":0)json"
      R"json(,"lp_iterations":0,"lp_columns_priced":0)json"
      R"json(,"lp_candidate_refills":0,"seed":"0","options_fingerprint":"")json"
      R"json(,"features":{}}])json"
      R"json(,"trends":[{"predicate":"increasing(pinned_sp_hops)")json"
      R"json(,"feature":"pinned_sp_hops","trend":"increasing")json"
      R"json(,"rho":0.9784922871473329,"p_value":1.7481490558e-08)json"
      R"json(,"support":12}],"observations":12)json"
      R"json(,"wall_seconds":7.739930840000001,"lp_solves":112202)json"
      R"json(,"lp_iterations":713712,"lp_columns_priced":8675309)json"
      R"json(,"lp_candidate_refills":424242})json";
  EXPECT_EQ(s.to_json(0), wire);
  const auto from_wire = ExperimentSummary::from_json(wire);
  ASSERT_TRUE(from_wire.has_value());
  EXPECT_TRUE(s == *from_wire);
}

TEST(Engine, RealExperimentJsonRoundTrips) {
  auto spec = small_grid();
  spec.cases = {"first_fit"};
  const auto res = Engine().run(spec);
  const auto summary = res.summary();
  const auto parsed = ExperimentSummary::from_json(res.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(summary == *parsed);
}

TEST(UtilJson, NumbersRoundTripIncludingExtremes) {
  // 1e19 exceeds long long range (the integer fast path must range-check
  // before casting); the others stress shortest-form round-tripping.
  for (double v : {1e19, -1e19, 1.0 / 3.0, 5e-324, 1.7976931348623157e308,
                   0.1, -0.0, 1e15}) {
    const util::Json j(v);
    const auto parsed = util::Json::parse(j.dump());
    ASSERT_TRUE(parsed.has_value()) << v;
    EXPECT_EQ(parsed->as_num(), v) << v;
  }
  // Non-finite values serialize as null (JSON has no NaN/Inf) and bare
  // inf/nan tokens are rejected on input.
  EXPECT_EQ(util::Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_FALSE(util::Json::parse("inf").has_value());
  EXPECT_FALSE(util::Json::parse("nan").has_value());
}

TEST(UtilJson, CheckedIntegerAccessorsRejectWhatACastCannotHold) {
  using util::Json;
  const double two31 = 2147483648.0;
  EXPECT_EQ(Json(two31 - 1).as_int(), std::optional<int>(2147483647));
  EXPECT_EQ(Json(-two31).as_int(), std::optional<int>(-2147483647 - 1));
  EXPECT_EQ(Json(-0.0).as_int(), std::optional<int>(0));
  for (double bad : {two31, -two31 - 1, 1e300, -1e300, 2.5, -0.5,
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()})
    EXPECT_FALSE(Json(bad).as_int().has_value()) << bad;

  EXPECT_EQ(Json(0.0).as_u64(), std::optional<std::uint64_t>(0));
  EXPECT_EQ(Json(two31).as_u64(), std::optional<std::uint64_t>(2147483648u));
  // The largest double below 2^64.
  EXPECT_EQ(Json(18446744073709549568.0).as_u64(),
            std::optional<std::uint64_t>(18446744073709549568ull));
  for (double bad : {-1.0, 18446744073709551616.0, 1e300, 2.5,
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()})
    EXPECT_FALSE(Json(bad).as_u64().has_value()) << bad;

  // Other kinds are never numbers.
  for (const Json& other : {Json(), Json(true), Json("7")}) {
    EXPECT_FALSE(other.as_int().has_value());
    EXPECT_FALSE(other.as_u64().has_value());
  }
  // Parsed numbers behave like constructed ones.
  EXPECT_EQ(Json::parse("2147483647")->as_int(),
            std::optional<int>(2147483647));
  EXPECT_FALSE(Json::parse("2147483648")->as_int().has_value());
  EXPECT_FALSE(Json::parse("1e300")->as_u64().has_value());
}

TEST(JobSummary, FromJsonRejectsIntegerFieldsACastCannotHold) {
  JobSummary job;
  job.case_name = "first_fit";
  job.index = 3;
  job.lp_solves = 12;
  const util::Json good = job.to_json_value();
  ASSERT_TRUE(JobSummary::from_json_value(good).has_value());
  const std::vector<std::pair<const char*, double>> bad = {
      {"index", 1e300},       {"index", 2147483648.0}, {"subspaces", 2.5},
      {"significant", -1e10}, {"lp_solves", -1.0},     {"lp_iterations", 1e300},
      {"lp_columns_priced", 0.5}};
  for (const auto& [key, value] : bad) {
    util::Json j = good;
    j.set(key, value);
    EXPECT_FALSE(JobSummary::from_json_value(j).has_value()) << key;
  }
  // The seed is a decimal string: digits only, the whole string, in range.
  for (const char* seed : {"-1", " +7", "12x", "abc", "99999999999999999999999",
                           "18446744073709551616", ""}) {
    util::Json j = good;
    j.set("seed", seed);
    EXPECT_FALSE(JobSummary::from_json_value(j).has_value()) << seed;
  }
  util::Json at_limit = good;
  at_limit.set("index", 2147483647.0);
  at_limit.set("seed", "18446744073709551615");
  const auto parsed = JobSummary::from_json_value(at_limit);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->index, 2147483647);
  EXPECT_EQ(parsed->seed, 18446744073709551615ull);
  // The experiment document's own integer fields are checked the same way.
  const std::string doc =
      "{\"jobs\":[],\"trends\":[],\"observations\":OBS,\"lp_solves\":0}";
  const auto with = [&](const std::string& obs) {
    std::string text = doc;
    return text.replace(text.find("OBS"), 3, obs);
  };
  EXPECT_TRUE(ExperimentSummary::from_json(with("7")).has_value());
  EXPECT_FALSE(ExperimentSummary::from_json(with("1e300")).has_value());
  EXPECT_FALSE(ExperimentSummary::from_json(with("2.5")).has_value());
}

TEST(JobSummary, FromJsonRejectsFieldsOfTheWrongKind) {
  JobSummary job;
  job.case_name = "first_fit";
  job.ok = true;
  job.best_gap_found = 2.5;
  job.features = {{"num_links", 12.0}};
  const util::Json good = job.to_json_value();
  ASSERT_TRUE(JobSummary::from_json_value(good).has_value());
  // A field of the wrong kind must not decode as a default (false, 0, "").
  const std::vector<std::pair<const char*, util::Json>> bad = {
      {"case", util::Json(3.0)},   {"scenario", util::Json(true)},
      {"ok", util::Json("yes")},   {"error", util::Json(1.0)},
      {"best_gap_found", util::Json("7.5")},
      {"gap_scale", util::Json(true)},
      {"wall_seconds", util::Json::array()},
      {"options_fingerprint", util::Json(0.0)},
      {"features", util::Json("num_links=12")}};
  for (const auto& [key, value] : bad) {
    util::Json j = good;
    j.set(key, value);
    EXPECT_FALSE(JobSummary::from_json_value(j).has_value()) << key;
  }
  util::Json feature = util::Json::object();
  feature.set("num_links", "12");
  util::Json j = good;
  j.set("features", feature);
  EXPECT_FALSE(JobSummary::from_json_value(j).has_value());

  // to_json writes a non-finite double as null; it decodes as 0, as ever.
  job.max_seed_gap = std::numeric_limits<double>::infinity();
  job.features["span"] = std::numeric_limits<double>::quiet_NaN();
  const auto parsed = JobSummary::from_json_value(
      *util::Json::parse(job.to_json_value().dump(0)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->max_seed_gap, 0.0);
  EXPECT_EQ(parsed->features.at("span"), 0.0);
  EXPECT_EQ(parsed->features.at("num_links"), 12.0);

  // Trend and experiment fields are checked the same way.
  const std::string doc =
      "{\"jobs\":[],\"trends\":[{\"predicate\":\"increasing(x)\","
      "\"feature\":\"x\",\"trend\":\"increasing\",\"rho\":RHO,"
      "\"p_value\":0.5,\"support\":3}],\"observations\":3,"
      "\"wall_seconds\":WALL}";
  const auto with = [&](const std::string& rho, const std::string& wall) {
    std::string text = doc;
    text.replace(text.find("RHO"), 3, rho);
    return text.replace(text.find("WALL"), 4, wall);
  };
  EXPECT_TRUE(ExperimentSummary::from_json(with("0.9", "1.5")).has_value());
  EXPECT_TRUE(ExperimentSummary::from_json(with("null", "null")).has_value());
  EXPECT_FALSE(
      ExperimentSummary::from_json(with("\"0.9\"", "1.5")).has_value());
  EXPECT_FALSE(
      ExperimentSummary::from_json(with("0.9", "false")).has_value());
}

TEST(UtilJson, ParseRejectsMalformedDocuments) {
  using util::Json;
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1, 2,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  ASSERT_TRUE(Json::parse("  {\"a\": [1, 2.5e3, true, null]} ").has_value());
}

TEST(UtilJson, ParseCapsNestingDepth) {
  // parse() recurses once per nesting level, and xplaind runs it on every
  // request line: past Json::kMaxDepth it must fail, not overflow the stack.
  using util::Json;
  const auto arrays = [](int levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  const auto objects = [](int levels) {
    std::string s;
    for (int i = 0; i < levels; ++i) s += "{\"a\":";
    return s + "1" + std::string(levels, '}');
  };
  for (int levels : {Json::kMaxDepth - 1, Json::kMaxDepth}) {
    EXPECT_TRUE(Json::parse(arrays(levels)).has_value()) << levels;
    EXPECT_TRUE(Json::parse(objects(levels)).has_value()) << levels;
  }
  const auto deepest = Json::parse(arrays(Json::kMaxDepth));
  const Json* inner = &*deepest;
  for (int i = 1; i < Json::kMaxDepth; ++i) inner = &inner->at(0);
  EXPECT_EQ(inner->size(), 0u);
  EXPECT_FALSE(Json::parse(arrays(Json::kMaxDepth + 1)).has_value());
  EXPECT_FALSE(Json::parse(objects(Json::kMaxDepth + 1)).has_value());
  // Mixed containers count alike: n [{ pairs are 2n levels.
  const auto mixed = [](int pairs) {
    std::string s;
    for (int i = 0; i < pairs; ++i) s += "[{\"a\":";
    s += "1";
    for (int i = 0; i < pairs; ++i) s += "}]";
    return s;
  };
  EXPECT_TRUE(Json::parse(mixed(Json::kMaxDepth / 2)).has_value());
  EXPECT_FALSE(Json::parse(mixed(Json::kMaxDepth / 2 + 1)).has_value());
  // A 400,000-byte line of '[' (it used to crash the parser).
  EXPECT_FALSE(Json::parse(std::string(400'000, '[')).has_value());
}
