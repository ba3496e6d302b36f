// fuzz_probe: repeated probe-mode fuzz campaigns (search::run_fuzzer).
#include <set>

#include "bench.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using xplain::search::FuzzerOptions;
using xplain::search::FuzzResult;

struct Campaign {
  double wall = 0.0;
  double cpu = 0.0;
  long evals = 0;
  long failed = 0;
  long lp_solves = 0;
  long buckets = 0;  // distinct coverage buckets among the discoveries
  std::string digest;
  FuzzResult result;
};

Campaign run_campaign(const FuzzerOptions& opts) {
  Campaign c;
  const xplain::solver::LpCounters lp0 = xplain::solver::lp_counters();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  c.result = xplain::search::run_fuzzer(opts);
  c.wall = now_s() - t0;
  c.cpu = cpu_s() - cpu0;
  c.lp_solves = lp_delta(lp0, xplain::solver::lp_counters()).solves;
  c.evals = c.result.stats.evals;
  c.failed = c.result.stats.failed_jobs;
  std::set<std::string> buckets;
  for (const auto& d : c.result.archive.discoveries()) buckets.insert(d.bucket);
  c.buckets = static_cast<long>(buckets.size());
  c.digest = digest(Tracer::unkey(c.result.archive.to_json(0)));
  return c;
}

/// One registry().create per unique (case, seed-corpus scenario).
double setup_once(std::uint64_t seed, bool smoke, bool* ok) {
  const double t0 = now_s();
  const FuzzerOptions opts = fuzz_campaign(seed, smoke);
  for (const auto& c : opts.cases)
    for (const auto& s : opts.seed_corpus)
      if (!xplain::registry().create(c, s)) *ok = false;
  return now_s() - t0;
}

}  // namespace

void run_fuzz(const Args& a, Report& r) {
  const double start = now_s();
  const int min_passes = a.smoke ? 1 : 3;
  const auto make = [&](int k) {
    return fuzz_campaign(pass_seed(a.seed, k), a.smoke);
  };

  if (!a.trace) {
    // Set-up repetitions are spread over the run (one before each campaign,
    // the rest after the last), so their median does not hinge on one
    // stretch of machine speed.
    bool setup_ok = true;
    std::vector<double> setups;
    const int setup_reps = a.smoke ? 3 : kSetupReps;
    const auto setup = [&] {
      setups.push_back(setup_once(pass_seed(a.seed, 0), a.smoke, &setup_ok));
    };
    std::vector<Campaign> runs;
    for (int k = 0; k < min_passes || now_s() - start < a.seconds; ++k) {
      if (k < setup_reps) setup();
      runs.push_back(run_campaign(make(k)));
    }
    while (static_cast<int>(setups.size()) < setup_reps) setup();
    r.check("setup.cases_build", setup_ok);
    std::vector<double> rate, cpu, lat;
    long evals = 0, failed = 0, solves = 0;
    std::string all_digests;
    for (const Campaign& c : runs) {
      rate.push_back(static_cast<double>(c.evals) / c.wall);
      cpu.push_back(c.cpu / static_cast<double>(c.evals));
      lat.push_back(c.wall);
      evals += c.evals;
      failed += c.failed;
      solves += c.lp_solves;
      all_digests += c.digest;
      r.check("guard.lp_solves_positive", c.lp_solves > 0);
    }
    r.attempted = evals;
    r.failed = failed;
    r.metric("setup_s", median(setups), "s");
    r.metric("jobs_per_s", median(rate), "jobs/s");
    r.metric("job_latency_p50_s", quantile(lat, 0.5), "s");
    r.metric("job_latency_p90_s", quantile(lat, 0.9), "s");
    r.metric("cpu_s_per_job", median(cpu), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.note("failed_frac", static_cast<double>(failed) / evals, "ratio");
    r.note("discovered_buckets", static_cast<double>(runs.front().buckets),
           "count");
    r.note("campaigns", static_cast<double>(runs.size()), "count");
    r.note("lp_solves", static_cast<double>(solves), "count");
    r.text("digest.archive0", runs.front().digest);
    r.text("digest.run", digest(all_digests));
    r.check("output.no_failed_evals", failed == 0);
    return;
  }

  Tracer& tracer = Tracer::instance();
  tracer.register_cases(make(0).cases);
  std::vector<double> overhead;
  std::vector<Span> all_spans;
  LayerTotals totals;
  LayerExtras extras;
  // A round is two passes; start one only if it fits the time left.
  double round_s = 0.0;
  for (int k = 0; k == 0 || now_s() - start + round_s <= a.seconds; ++k) {
    const double round_start = now_s();
    const FuzzerOptions opts = make(k);
    const Campaign ref = run_campaign(opts);
    FuzzerOptions traced = opts;
    for (auto& c : traced.cases) c = Tracer::key(c);
    const int pass = tracer.begin_pass("pass");
    const Campaign got = run_campaign(traced);
    tracer.end(pass);
    std::vector<Span> spans = tracer.take();
    const LayerTotals t = summarize(spans);
    const std::string round = "round" + std::to_string(k);
    r.check("reconcile.digest." + round, got.digest == ref.digest,
            got.digest + " vs " + ref.digest);
    r.check("reconcile.lp_solves." + round, t.lp_solves == ref.lp_solves,
            std::to_string(t.lp_solves) + " vs " + std::to_string(ref.lp_solves));
    r.check("output.no_failed_evals." + round, ref.failed == 0 && got.failed == 0);
    r.check("guard.lp_solves_positive." + round, t.lp_solves > 0);
    overhead.push_back(got.wall / ref.wall - 1.0);
    if (k == 0) {
      totals = t;
      const auto& st = got.result.stats;
      extras.worker_idle_frac =
          1.0 - t.job_busy / (opts.workers * got.wall);
      extras.engine_case_builds = t.builds;
      extras.evals = st.evals;
      extras.generations = st.generations;
      extras.offers = st.coverage.offers;
      extras.accepted = st.coverage.accepted_novel + st.coverage.accepted_improved;
      extras.coverage_buckets = st.coverage.buckets;
      extras.discoveries = got.result.archive.size();
      r.attempted = got.evals;
      r.failed = got.failed;
      r.text("digest.archive0", got.digest);
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
