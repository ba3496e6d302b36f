// XPlain pipeline façade — the Fig. 3 architecture wired end to end:
//
//   DSL --compile--> Heuristic Analyzer --example--> Adversarial Subspace
//   Generator --subspaces--> Significance Checker --Type 1--> Explainer
//   --Type 2-->  (and, across instances, Instance Generator + Generalizer
//   --Type 3--, exposed in src/generalize and fed by the experiment
//   engine).
//
// run_pipeline(case) is the single-job primitive: one HeuristicCase,
// typically obtained from the CaseRegistry —
//   run_pipeline(*registry().find("demand_pinning"));
//
// Multi-instance sweeps go through xplain::Engine (engine/engine.h): a
// declarative ExperimentSpec expands into (case, scenario) jobs, runs them
// deterministically across workers, and feeds Type-3 automatically.
#pragma once

#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "explain/explainer.h"
#include "explain/heatmap.h"
#include "subspace/subspace_generator.h"
#include "util/json.h"
#include "xplain/case.h"
#include "xplain/lp_work.h"

namespace xplain {

struct PipelineOptions {
  double min_gap = 1.0;
  subspace::SubspaceOptions subspace;
  explain::ExplainOptions explain;
  /// Passed to HeuristicCase::make_analyzer to decorrelate stochastic
  /// analyzers; the engine's per-job derivation overwrites it (see
  /// apply_seed_salt).
  std::uint64_t seed_salt = 0;

  /// Stable, injective serialization of every knob that can change a
  /// pipeline's RESULT (gaps, subspaces, explanations, trends feed) —
  /// thresholds, budgets, and seeds, with doubles encoded by bit pattern.
  /// Worker-count fields are deliberately excluded: the parallel
  /// determinism contract (util/parallel.h) makes them wall-clock-only.
  /// This is the options leg of the server's result-cache key
  /// ((case, scenario.cache_key(), fingerprint)); two options values that
  /// could produce different results must never share a fingerprint, and
  /// the version prefix changes whenever a result-bearing knob is added.
  /// One "key=value" per for_each_option row with a fingerprint key.
  std::string fingerprint() const;

  /// "" when every knob lies in its row's admissible range; otherwise the
  /// first violation, naming the knob's path: "<path> must be in [lo, hi]".
  std::string validate() const;

  /// Overlays an options object in the xplaind wire form (one nested
  /// object per path segment: the row "a.b" reads {"a":{"b":value}}) onto
  /// *this, then validates.  An unknown key, a value of the wrong JSON kind
  /// or a value outside its range returns false with the reason in *err,
  /// naming `where` + the path (*this may then be partly overlaid).
  [[nodiscard]] bool read_json(const util::Json& v, const std::string& where,
                               std::string* err);
};

/// An admissible range [lo, hi]; an open end excludes that bound.  NaN is
/// never inside.
struct OptionRange {
  double lo = 0.0;
  double hi = 0.0;
  bool lo_open = false;
  bool hi_open = false;

  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
};

/// One PipelineOptions knob, as for_each_option declares it.
struct OptionSpec {
  /// JSON path below a request's "options" object.
  const char* path;
  /// Key in fingerprint(); nullptr for the two worker counts.
  const char* fp_key;
  /// Admissible values of a double or int knob (seeds take any value).
  OptionRange range = {};
  /// An RNG stream: apply_seed_salt offsets it by the salt.
  bool stream = false;
};

namespace option_bounds {
/// The largest finite double: "[0, inf)" admits every finite value >= 0.
inline constexpr double kFinite = std::numeric_limits<double>::max();
/// Sample budgets (tree samples, significance pairs, explanation samples)
/// and the tree's per-node counts, which cannot usefully exceed them.
inline constexpr double kMaxSamples = 1e5;
/// Worker counts: util::resolve_workers' XPLAIN_WORKERS cap.
inline constexpr double kMaxWorkers = 4096;
}  // namespace option_bounds

/// THE options list: calls f(OptionSpec, member) once per knob, in
/// fingerprint order, on a const or mutable PipelineOptions.  The member's
/// static type (double, int, std::uint64_t, bool) picks its JSON reader and
/// its fingerprint encoding.  fingerprint(), validate(), read_json() and
/// apply_seed_salt all iterate this list, so a new knob is a struct member
/// plus one row here (pipeline.cpp pins every options struct's member
/// count, so a member without a row does not compile).
template <class Options, class F>
void for_each_option(Options& o, F&& f) {
  static_assert(std::is_same_v<std::remove_const_t<Options>, PipelineOptions>);
  using namespace option_bounds;
  auto& s = o.subspace;
  auto& e = o.explain;
  f(OptionSpec{"min_gap", "mg", {0, kFinite}}, o.min_gap);
  f(OptionSpec{"seed_salt", "salt"}, o.seed_salt);
  // Subspace generation (§5.2).  With dkw_eps >= 0.01 and dkw_delta >= 1e-6
  // a DKW-sized slice takes at most 72,544 samples.
  f(OptionSpec{"subspace.bad_gap_fraction", "s.bgf", {0, 1}},
    s.bad_gap_fraction);
  f(OptionSpec{"subspace.density_threshold", "s.dt", {0, 1}},
    s.density_threshold);
  f(OptionSpec{"subspace.dkw_eps", "s.de", {0.01, 1}}, s.dkw_eps);
  // Ranges read {lo, hi, lo_open, hi_open}: [1e-6, 1) and (0, 1] here.
  f(OptionSpec{"subspace.dkw_delta", "s.dd", {1e-6, 1, false, true}},
    s.dkw_delta);
  f(OptionSpec{"subspace.init_half_width_frac", "s.ihw", {0, 1, true}},
    s.init_half_width_frac);
  f(OptionSpec{"subspace.slice_frac", "s.sf", {0, 1, true}}, s.slice_frac);
  f(OptionSpec{"subspace.max_expansion_rounds", "s.mer", {0, 1000}},
    s.max_expansion_rounds);
  f(OptionSpec{"subspace.tree.max_depth", "s.t.md", {0, 64}},
    s.tree.max_depth);
  f(OptionSpec{"subspace.tree.min_samples_leaf", "s.t.msl", {1, kMaxSamples}},
    s.tree.min_samples_leaf);
  // At least 1: the tree divides by it when thinning split candidates.
  f(OptionSpec{"subspace.tree.max_thresholds", "s.t.mt", {1, kMaxSamples}},
    s.tree.max_thresholds);
  f(OptionSpec{"subspace.tree_samples", "s.ts", {0, kMaxSamples}},
    s.tree_samples);
  f(OptionSpec{"subspace.tree_inflate_frac", "s.tif", {0, 1}},
    s.tree_inflate_frac);
  f(OptionSpec{"subspace.significance.pairs", "s.sig.p", {0, kMaxSamples}},
    s.significance.pairs);
  f(OptionSpec{"subspace.significance.p_threshold", "s.sig.pt", {0, 1}},
    s.significance.p_threshold);
  f(OptionSpec{"subspace.significance.shell_frac", "s.sig.sh", {0, 1, true}},
    s.significance.shell_frac);
  // SubspaceGenerator::generate overwrites this seed for each subspace
  // (sopts.seed = rng.engine()()), so it cannot change a result; it stays a
  // fingerprinted, salted row because dropping it would change every
  // fingerprint and orphan every journal already written.
  f(OptionSpec{"subspace.significance.seed", "s.sig.seed", {}, true},
    s.significance.seed);
  f(OptionSpec{"subspace.significance.workers", nullptr, {0, kMaxWorkers}},
    s.significance.workers);
  f(OptionSpec{"subspace.max_subspaces", "s.max", {0, 1000}},
    s.max_subspaces);
  f(OptionSpec{"subspace.seed", "s.seed", {}, true}, s.seed);
  f(OptionSpec{"subspace.keep_insignificant", "s.ki"}, s.keep_insignificant);
  // Type-2 explanation sampling.
  f(OptionSpec{"explain.samples", "e.n", {0, kMaxSamples}}, e.samples);
  f(OptionSpec{"explain.flow_eps", "e.eps", {0, kFinite}}, e.flow_eps);
  f(OptionSpec{"explain.seed", "e.seed", {}, true}, e.seed);
  f(OptionSpec{"explain.attempts_per_sample", "e.att", {1, 10000}},
    e.attempts_per_sample);
  f(OptionSpec{"explain.workers", nullptr, {0, kMaxWorkers}}, e.workers);
}

/// Per-stage wall-clock breakdown of one pipeline run, plus the LP solver
/// work the run triggered (from solver::lp_counters deltas; the counters
/// are thread-inclusive, so per-instance attribution is exact even with
/// several engine or service workers — see LpCounters in solver/lp.h).
struct StageTimes : LpWork {
  double compile_seconds = 0.0;   // case -> evaluator/analyzer/oracle
  double analyze_seconds = 0.0;   // inside HeuristicAnalyzer::find_adversarial
  double subspace_seconds = 0.0;  // expansion + tree + significance
  double explain_seconds = 0.0;   // Type-2 sampling

  double total() const {
    return compile_seconds + analyze_seconds + subspace_seconds +
           explain_seconds;
  }
  StageTimes& operator+=(const StageTimes& o);
};

struct PipelineResult {
  /// The case's self-reported name() — not necessarily the key it was
  /// registered or looked up under; empty for the low-level overload.
  std::string case_name;
  /// Type 1: validated adversarial subspaces.
  std::vector<subspace::AdversarialSubspace> subspaces;
  /// Type 2: one per subspace, aligned by index.
  std::vector<explain::Explanation> explanations;
  subspace::GenerationTrace trace;
  StageTimes stages;
  double wall_seconds = 0.0;
  /// Type-3 feed: the case's instance features and gap normalization.
  std::map<std::string, double> features;
  double gap_scale = 1.0;

  /// Largest adversarial gap the analyzer reported, including examples
  /// whose subspaces were later rejected as insignificant.  Still 0 when
  /// the analyzer found nothing at opts.min_gap — Type-3 sweeps should run
  /// with a low min_gap so weak instances contribute their true gaps.
  double best_gap_found = 0.0;

  /// Largest seed gap across *validated* subspaces (0 when none).
  double max_gap() const;
  /// Validated subspaces that passed the significance check.
  int count_significant() const;
};

/// Offsets every RNG stream in `opts` by `salt` — the one place that knows
/// which PipelineOptions fields carry seeds.  The experiment engine derives
/// its per-job options through this, so a newly added seeded stage
/// decorrelates across grid jobs (a pure function: same (opts, salt) in,
/// same options out).
PipelineOptions apply_seed_salt(PipelineOptions opts, std::uint64_t salt);

/// Runs the pipeline on any heuristic case.
PipelineResult run_pipeline(const HeuristicCase& c,
                            const PipelineOptions& opts = {});

}  // namespace xplain
