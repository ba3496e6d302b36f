// lp_explain and vbp_explain: repeated passes of Engine::run over seeded
// grids (a pass is one or more grids run back to back).
#include <algorithm>
#include <functional>
#include <set>

#include "bench.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using xplain::Engine;
using xplain::ExperimentResult;
using xplain::ExperimentSpec;
using Grids = std::vector<ExperimentSpec>;

struct Pass {
  double wall = 0.0;
  double cpu = 0.0;
  long jobs = 0;
  long failed = 0;
  long lp_solves = 0;
  long significant = 0;
  long trends = 0;
  std::vector<double> job_seconds;
  std::string digest;
};

Pass summarize_pass(const std::vector<ExperimentResult>& results, double wall,
                    double cpu) {
  Pass p;
  p.wall = wall;
  p.cpu = cpu;
  std::string text;
  for (const ExperimentResult& res : results) {
    p.jobs += static_cast<long>(res.jobs.size());
    p.lp_solves += res.stages.lp_solves;
    p.trends += static_cast<long>(res.trends.predicates.size());
    for (const auto& j : res.jobs) {
      if (!j.ok) ++p.failed;
      p.job_seconds.push_back(j.pipeline.wall_seconds);
      for (const auto& s : j.pipeline.subspaces) p.significant += s.significant;
    }
    text += scrubbed_json(res.summary());
  }
  p.digest = digest(text);
  return p;
}

Pass run_untraced(const Grids& grids) {
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  std::vector<ExperimentResult> results;
  for (const ExperimentSpec& spec : grids) results.push_back(Engine().run(spec));
  return summarize_pass(results, now_s() - t0, cpu_s() - cpu0);
}

/// The traced twin of run_untraced: decorated cases, and the Type-3 step
/// called (and timed) here instead of inside Engine::run.
struct TracedPass {
  Pass pass;
  std::vector<ExperimentResult> results;
  double engine_wall = 0.0;
};

TracedPass run_traced(const Grids& grids) {
  Tracer& tracer = Tracer::instance();
  TracedPass out;
  const int pass = tracer.begin_pass("pass");
  const double t0 = now_s();
  for (const ExperimentSpec& spec : grids) {
    ExperimentSpec traced = spec;
    for (auto& c : traced.cases) c = Tracer::key(c);
    traced.run_generalizer = false;
    const double e0 = now_s();
    ExperimentResult res = Engine().run(traced);
    out.engine_wall += now_s() - e0;
    if (spec.run_generalizer) {
      std::vector<xplain::PipelineResult> slim;
      for (const auto& j : res.jobs) {
        if (!j.ok) continue;
        xplain::PipelineResult p;
        p.features = j.pipeline.features;
        p.gap_scale = j.pipeline.gap_scale;
        p.best_gap_found =
            std::max(j.pipeline.max_gap(), j.pipeline.best_gap_found);
        slim.push_back(std::move(p));
      }
      const int gen = tracer.begin("generalize", pass);
      res.trends = xplain::generalize::generalize_batch(slim, spec.grammar,
                                                        spec.normalize_gap);
      tracer.end(gen);
    }
    out.results.push_back(std::move(res));
  }
  tracer.end(pass);
  out.pass = summarize_pass(out.results, now_s() - t0, 0.0);
  return out;
}

/// Start of the pass's input generation until one registry().create per
/// unique (case, scenario) is done.
double setup_once(const std::function<Grids()>& make, bool* ok) {
  const double t0 = now_s();
  std::set<std::pair<std::string, std::string>> seen;
  for (const ExperimentSpec& spec : make())
    for (const auto& c : spec.cases)
      for (const auto& s : spec.scenarios)
        if (seen.insert({c, s.cache_key()}).second &&
            !xplain::registry().create(c, s))
          *ok = false;
  return now_s() - t0;
}

}  // namespace

void run_grid(const Args& a, Report& r) {
  const bool lp = a.workload == "lp_explain";
  const auto make = [&](int pass) {
    const std::uint64_t s = pass_seed(a.seed, pass);
    return lp ? lp_grids(s, a.smoke) : vbp_grids(s, a.smoke);
  };

  const double start = now_s();
  const auto guards = [&](const Pass& p, const std::string& suffix) {
    if (lp) {
      r.check("guard.lp_solves_positive" + suffix, p.lp_solves > 0);
      r.check("guard.trends_positive" + suffix, p.trends > 0);
    } else {
      r.check("guard.vbp_zero_lp_solves" + suffix, p.lp_solves == 0);
    }
  };

  if (!a.trace) {
    // Set-up repetitions are spread over the run (one before each pass, the
    // rest after the last), so their median does not hinge on one stretch
    // of machine speed.
    bool setup_ok = true;
    std::vector<double> setups;
    const int setup_reps = a.smoke ? 3 : kSetupReps;
    const auto setup = [&] {
      setups.push_back(setup_once([&] { return make(0); }, &setup_ok));
    };
    std::vector<Pass> passes;
    const int min_passes = a.smoke ? 1 : 3;
    for (int k = 0; k < min_passes || now_s() - start < a.seconds; ++k) {
      if (k < setup_reps) setup();
      passes.push_back(run_untraced(make(k)));
    }
    while (static_cast<int>(setups.size()) < setup_reps) setup();
    r.check("setup.cases_build", setup_ok);

    std::vector<double> rate, cpu, lat;
    long jobs = 0, failed = 0, solves = 0, significant = 0;
    std::string all_digests;
    for (const Pass& p : passes) {
      rate.push_back(static_cast<double>(p.jobs) / p.wall);
      cpu.push_back(p.cpu / static_cast<double>(p.jobs));
      lat.insert(lat.end(), p.job_seconds.begin(), p.job_seconds.end());
      jobs += p.jobs;
      failed += p.failed;
      solves += p.lp_solves;
      significant += p.significant;
      all_digests += p.digest;
      guards(p, "." + std::to_string(rate.size() - 1));
    }
    r.attempted = jobs;
    r.failed = failed;
    r.metric("setup_s", median(setups), "s");
    r.metric("jobs_per_s", median(rate), "jobs/s");
    r.metric("job_latency_p50_s", quantile(lat, 0.5), "s");
    r.metric("job_latency_p90_s", quantile(lat, 0.9), "s");
    r.metric("cpu_s_per_job", median(cpu), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.note("failed_frac", static_cast<double>(failed) / jobs, "ratio");
    r.note("significant_subspaces",
           static_cast<double>(passes.front().significant), "count");
    r.note("significant_subspaces_per_job",
           static_cast<double>(significant) / jobs, "ratio");
    if (lp) r.note("trends", static_cast<double>(passes.front().trends), "count");
    r.note("passes", static_cast<double>(passes.size()), "count");
    r.note("latency_samples", static_cast<double>(lat.size()), "count");
    r.note("lp_solves", static_cast<double>(solves), "count");
    std::string rates;
    for (double v : rate) rates += (rates.empty() ? "" : ",") + std::to_string(v);
    r.text("pass_jobs_per_s", rates);
    r.text("digest.pass0", passes.front().digest);
    r.text("digest.run", digest(all_digests));
    r.check("output.all_jobs_ok", failed == 0,
            std::to_string(failed) + " of " + std::to_string(jobs));
    return;
  }

  // Traced run: rounds of (untraced pass, traced pass) over the same inputs.
  Tracer::instance().register_cases(
      {"demand_pinning_chain", "wcmp", "first_fit", "best_fit"});
  std::vector<double> overhead;
  std::vector<Span> all_spans;
  LayerTotals totals;
  LayerExtras extras;
  // A round is two passes; start one only if it fits the time left.
  double round_s = 0.0;
  for (int k = 0; k == 0 || now_s() - start + round_s <= a.seconds; ++k) {
    const double round_start = now_s();
    const Grids grids = make(k);
    const Pass ref = run_untraced(grids);
    const TracedPass got = run_traced(grids);
    std::vector<Span> spans = Tracer::instance().take();
    const LayerTotals t = summarize(spans);
    long job_build_solves = 0;
    for (const Span& s : spans)
      if (s.name == "job" || s.name == "case.build")
        job_build_solves += s.lp_solves;
    const std::string round = "." + std::to_string(k);
    r.check("reconcile.digest" + round, got.pass.digest == ref.digest,
            got.pass.digest + " vs " + ref.digest);
    r.check("reconcile.lp_solves" + round, t.lp_solves == ref.lp_solves,
            std::to_string(t.lp_solves) + " vs " +
                std::to_string(ref.lp_solves));
    r.check("reconcile.span_lp_solves" + round,
            job_build_solves == t.lp_solves);
    r.check("output.all_jobs_ok" + round,
            ref.failed == 0 && got.pass.failed == 0);
    guards(got.pass, round);
    overhead.push_back(got.pass.wall / ref.wall - 1.0);
    if (k == 0) {
      totals = t;
      extras.validated_known = true;
      double slots = 0.0;
      for (std::size_t g = 0; g < grids.size(); ++g) {
        const ExperimentResult& res = got.results[g];
        for (const auto& j : res.jobs)
          extras.validated += static_cast<long>(j.pipeline.subspaces.size());
        extras.observations +=
            static_cast<long>(res.trends.observations.size());
        extras.predicates += static_cast<long>(res.trends.predicates.size());
        extras.engine_case_builds += res.case_builds;
        slots = std::max<double>(
            slots, std::min<double>(grids[g].workers,
                                    static_cast<double>(res.jobs.size())));
      }
      extras.worker_idle_frac = 1.0 - t.job_busy / (slots * got.engine_wall);
      r.attempted = got.pass.jobs;
      r.failed = got.pass.failed;
      r.text("digest.pass0", got.pass.digest);
    }
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
    round_s = now_s() - round_start;
  }
  extras.trace_overhead_frac = median(overhead);
  emit_layers(r, totals, extras);
  r.note("rounds", static_cast<double>(overhead.size()), "count");
  const std::string path = a.work_dir + "/spans-" + a.workload + ".json";
  r.check("trace.span_file", write_spans(path, all_spans), path);
  r.text("trace.span_file", path);
}

}  // namespace perfbench
