// The coverage-guided scenario fuzzer — search scenario space instead of
// enumerating it (the ROADMAP's fuzzing item; paper framing: surface the
// gap regions nobody thought to hand-pick).
//
// Generation loop:
//   1. generation 0 evaluates the seed corpus; later generations draw
//      candidates by mutating elite specs (search/mutator.h), each mutant a
//      pure function of (parent, derive_seed(fuzzer seed, counter));
//   2. candidates are evaluated as ONE Engine grid per generation —
//      cases x candidate scenarios x {probe options} via the ExperimentSpec
//      option axis — under cheap gap-probe options (one subspace, no
//      explainer, trimmed sampling budgets);
//   3. the coverage map (search/coverage.h) keeps candidates that land in
//      unseen feature buckets or beat a bucket incumbent; kept specs join
//      the elite pool, and those clearing the significant-gap bar become
//      Discoveries;
//   4. deep mode re-runs each survivor under the full-pipeline options and
//      archives only deep-confirmed specs (>= 1 significant subspace).
//
// Determinism: probes run with reseed_jobs=false, so a job's result is a
// pure function of (case, scenario spec, options) — independent of where
// the spec appears in any grid — which is what lets the committed archive
// be REPLAYED exactly (replay_discovery).  All fuzzer decisions read Engine
// results in canonical grid order, so the archive is bitwise identical for
// any XPLAIN_WORKERS / FuzzerOptions::workers setting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "search/archive.h"
#include "search/coverage.h"
#include "search/mutator.h"
#include "xplain/pipeline.h"

namespace xplain::search {

struct FuzzerOptions {
  /// CaseRegistry keys every candidate is probed under.
  std::vector<std::string> cases = {"wcmp", "demand_pinning"};
  std::uint64_t seed = 1;
  /// Total Engine jobs (probe + deep) the run may spend.  Each candidate
  /// scenario costs cases.size() probe jobs.
  int budget_evals = 96;
  /// Candidate scenarios per generation (after dedup against everything
  /// already evaluated).
  int generation_size = 6;
  /// Normalized-gap bar (gap / case gap_scale) for a discovery.
  double significant_gap = 0.15;
  /// Relative gain needed to displace a coverage-bucket incumbent.
  double min_gain = 0.05;
  /// Deep mode: survivors get a full-pipeline run and only deep-confirmed
  /// specs (>= 1 significant subspace) are archived, under deep_options'
  /// fingerprint.
  bool deep = false;
  /// Engine workers per grid; <= 0 resolves via XPLAIN_WORKERS (the archive
  /// is bitwise identical either way — that is a test).
  int workers = 0;
  MutatorLimits limits;
  /// Generation-0 corpus; empty uses a built-in starter (small fat-tree,
  /// Waxman, line, star).
  std::vector<scenario::ScenarioSpec> seed_corpus;
  PipelineOptions probe_options = probe_defaults();
  PipelineOptions deep_options = deep_defaults();

  /// Cheap gap probe: one subspace, trimmed expansion/significance budgets,
  /// explainer off — an is-there-a-gap-here measurement, not a full story.
  static PipelineOptions probe_defaults();
  /// Full pipeline at the repo's default knobs (what a promoted discovery
  /// gets explained with).
  static PipelineOptions deep_defaults();
};

struct FuzzStats {
  int evals = 0;        // Engine jobs spent (probe + deep)
  int generations = 0;  // completed generation loops
  int deep_runs = 0;
  int failed_jobs = 0;  // jobs with ok=false (see JobResult::ok)
  CoverageStats coverage;
};

struct FuzzResult {
  Archive archive;
  FuzzStats stats;
};

FuzzResult run_fuzzer(const FuzzerOptions& opts);

/// Re-evaluates one archived discovery under the fuzzer options whose
/// fingerprint recorded it (probe or deep) with reseed_jobs=false and a
/// single worker: `gap` must equal Discovery::gap bitwise, `bucket` must
/// match — the committed-corpus regression gate.
struct ReplayOutcome {
  bool ok = false;
  std::string error;
  double gap = 0.0;
  double norm_gap = 0.0;
  std::string bucket;
  std::string options_fingerprint;
};

ReplayOutcome replay_discovery(const Discovery& d,
                               const FuzzerOptions& opts = {});

}  // namespace xplain::search
