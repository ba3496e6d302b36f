#include "search/fuzzer.h"

#include <set>
#include <utility>

#include "engine/engine.h"
#include "util/logging.h"
#include "util/random.h"

namespace xplain::search {

namespace {

using scenario::ScenarioSpec;
using scenario::TopologyKind;

std::vector<ScenarioSpec> builtin_seed_corpus() {
  std::vector<ScenarioSpec> seeds;
  {
    ScenarioSpec s;
    s.kind = TopologyKind::kFatTree;
    s.size = 4;
    seeds.push_back(s);
  }
  {
    ScenarioSpec s;
    s.kind = TopologyKind::kWaxman;
    s.size = 12;
    s.seed = 7;
    seeds.push_back(s);
  }
  {
    ScenarioSpec s;
    s.kind = TopologyKind::kLine;
    s.size = 6;
    seeds.push_back(s);
  }
  {
    ScenarioSpec s;
    s.kind = TopologyKind::kStar;
    s.size = 8;
    seeds.push_back(s);
  }
  return seeds;
}

/// One (cases x scenarios) probe or deep grid.  reseed_jobs stays OFF: a
/// job's result must be a pure function of (case, spec, options) — not its
/// grid position — or the committed archive could not be replayed exactly.
ExperimentResult run_grid(const std::vector<std::string>& cases,
                          std::vector<ScenarioSpec> scenarios,
                          const PipelineOptions& options, int workers) {
  ExperimentSpec es;
  es.cases = cases;
  es.scenarios = std::move(scenarios);
  es.option_variants = {options};
  es.reseed_jobs = false;
  es.run_generalizer = false;
  es.workers = workers;
  return Engine().run(es);
}

}  // namespace

PipelineOptions FuzzerOptions::probe_defaults() {
  PipelineOptions p;
  p.min_gap = 1.0;
  p.subspace.max_subspaces = 1;
  p.subspace.max_expansion_rounds = 6;
  p.subspace.dkw_eps = 0.15;
  p.subspace.tree_samples = 60;
  p.subspace.significance.pairs = 30;
  p.subspace.significance.workers = 1;
  p.explain.samples = 0;  // probes measure gaps, they don't tell stories
  p.explain.workers = 1;
  return p;
}

PipelineOptions FuzzerOptions::deep_defaults() {
  PipelineOptions p;
  p.min_gap = 1.0;
  return p;
}

FuzzResult run_fuzzer(const FuzzerOptions& opts) {
  FuzzResult out;
  if (opts.cases.empty() || opts.budget_evals <= 0) return out;

  const std::vector<ScenarioSpec> seeds =
      opts.seed_corpus.empty() ? builtin_seed_corpus() : opts.seed_corpus;
  CoverageMap cov(opts.significant_gap, opts.min_gain);

  // Elite pool: every coverage-accepted spec (novel OR incumbent-beating),
  // deduplicated by cache_key.  Sub-threshold novel specs stay in — being
  // mutated from is exactly how a low-gap frontier region leads somewhere.
  std::vector<ScenarioSpec> elites = seeds;
  std::set<std::string> elite_keys;
  for (const auto& s : seeds) elite_keys.insert(s.cache_key());
  std::set<std::string> evaluated;
  std::uint64_t mutation_counter = 0;
  int generation = 0;

  const int per_candidate = static_cast<int>(opts.cases.size());
  while (out.stats.evals < opts.budget_evals) {
    // --- Draw this generation's candidates. ---
    std::vector<ScenarioSpec> candidates;
    if (generation == 0) {
      for (const auto& s : seeds)
        if (evaluated.insert(s.cache_key()).second) candidates.push_back(s);
    } else {
      const int attempts_cap = 8 * opts.generation_size;
      for (int att = 0; att < attempts_cap && static_cast<int>(
                                                  candidates.size()) <
                                                  opts.generation_size;
           ++att) {
        const ScenarioSpec& parent =
            elites[static_cast<std::size_t>(mutation_counter) % elites.size()];
        const std::uint64_t mseed =
            util::Rng::derive_seed(opts.seed, ++mutation_counter);
        const Mutant m = mutate(parent, mseed, opts.limits);
        if (evaluated.insert(m.spec.cache_key()).second)
          candidates.push_back(m.spec);
      }
    }
    const int room = (opts.budget_evals - out.stats.evals) / per_candidate;
    if (candidates.empty() || room <= 0) break;
    if (static_cast<int>(candidates.size()) > room) candidates.resize(room);

    // --- Cheap probe: one Engine grid for the whole generation. ---
    const ExperimentResult res =
        run_grid(opts.cases, candidates, opts.probe_options, opts.workers);
    out.stats.evals += static_cast<int>(res.jobs.size());

    // --- Coverage acceptance, in canonical grid order. ---
    struct Survivor {
      Discovery d;
    };
    std::vector<Survivor> survivors;
    for (const JobResult& jr : res.jobs) {
      if (!jr.ok) {
        ++out.stats.failed_jobs;
        continue;
      }
      const double scale =
          jr.pipeline.gap_scale > 0 ? jr.pipeline.gap_scale : 1.0;
      const double gap = jr.pipeline.best_gap_found;
      const double norm = gap / scale;
      if (!cov.offer(jr.job.case_name, jr.pipeline.features, norm)) continue;
      const ScenarioSpec& spec = *jr.job.scenario;
      if (elite_keys.insert(spec.cache_key()).second) elites.push_back(spec);
      if (norm < opts.significant_gap) continue;
      Survivor s;
      s.d.case_name = jr.job.case_name;
      s.d.spec = spec;
      s.d.gap = gap;
      s.d.norm_gap = norm;
      s.d.bucket = bucket_key(jr.job.case_name, jr.pipeline.features);
      s.d.generation = generation;
      s.d.options_fingerprint = jr.options_fingerprint;
      survivors.push_back(std::move(s));
    }

    // --- Archive survivors (deep mode confirms them first). ---
    for (const Survivor& s : survivors) {
      if (!opts.deep) {
        out.archive.add(s.d);
        continue;
      }
      if (out.stats.evals >= opts.budget_evals) break;
      const ExperimentResult deep = run_grid(
          {s.d.case_name}, {s.d.spec}, opts.deep_options, opts.workers);
      ++out.stats.deep_runs;
      out.stats.evals += static_cast<int>(deep.jobs.size());
      const JobResult& dj = deep.jobs.front();
      if (!dj.ok || dj.pipeline.count_significant() < 1) continue;
      const double dscale =
          dj.pipeline.gap_scale > 0 ? dj.pipeline.gap_scale : 1.0;
      Discovery d = s.d;
      d.gap = dj.pipeline.best_gap_found;
      d.norm_gap = d.gap / dscale;
      d.options_fingerprint = dj.options_fingerprint;
      out.archive.add(d);
    }

    ++generation;
    ++out.stats.generations;
    XPLAIN_INFO << "fuzz: generation " << generation << " evaluated "
                << candidates.size() << " candidates, " << out.stats.evals
                << "/" << opts.budget_evals << " evals, archive "
                << out.archive.size();
  }

  out.stats.coverage = cov.stats();
  return out;
}

ReplayOutcome replay_discovery(const Discovery& d, const FuzzerOptions& opts) {
  ReplayOutcome out;
  const PipelineOptions* options = nullptr;
  if (d.options_fingerprint == opts.probe_options.fingerprint())
    options = &opts.probe_options;
  else if (d.options_fingerprint == opts.deep_options.fingerprint())
    options = &opts.deep_options;
  if (!options) {
    out.error =
        "discovery options_fingerprint matches neither probe nor deep "
        "options (" +
        d.options_fingerprint + ")";
    return out;
  }
  const ExperimentResult res =
      run_grid({d.case_name}, {d.spec}, *options, /*workers=*/1);
  const JobResult& jr = res.jobs.front();
  if (!jr.ok) {
    out.error = jr.error;
    return out;
  }
  out.ok = true;
  out.gap = jr.pipeline.best_gap_found;
  const double scale = jr.pipeline.gap_scale > 0 ? jr.pipeline.gap_scale : 1.0;
  out.norm_gap = out.gap / scale;
  out.bucket = bucket_key(d.case_name, jr.pipeline.features);
  out.options_fingerprint = jr.options_fingerprint;
  return out;
}

}  // namespace xplain::search
