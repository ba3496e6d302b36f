// service_mix: one client drives an xplaind child over its stdin/stdout
// pipe in a closed loop (a fixed window of outstanding submissions); the
// traced run replays the same request stream through an in-process
// server::Service with the same options.
#include <sys/stat.h>

#include <cstdio>
#include <map>
#include <mutex>

#include "bench.h"
#include "daemon.h"
#include "server/service.h"
#include "tracer.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

namespace {

using xplain::JobSummary;
using xplain::util::Json;

/// Submissions the client keeps outstanding (closed loop).
constexpr std::size_t kWindow = 2;
/// Result-cache bound: about fifteen job summaries, well below the stream's
/// working set, so the LRU evicts and repeats re-miss.
constexpr std::size_t kCacheMaxBytes = 12000;

double file_bytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
}

std::string fresh_path(const Args& a, const std::string& name) {
  const std::string p = a.work_dir + "/" + name;
  std::remove(p.c_str());
  return p;
}

/// Results keyed by (submission ordinal, grid index), scrubbed.
using JobTable = std::map<std::pair<long, int>, std::string>;

std::string table_digest(const JobTable& t) {
  std::string all;
  for (const auto& [k, v] : t) all += v + "\n";
  return digest(all);
}

std::string job_key(const JobSummary& s) {
  return s.case_name + '\x1f' + s.scenario + '\x1f' + s.options_fingerprint +
         '\x1f' + std::to_string(s.seed);
}

struct DaemonRun {
  std::vector<Request> requests;  // submission order: the replay input
  long jobs = 0;
  long failed = 0;
  long hits_seen = 0;
  long significant = 0;
  std::vector<double> latency, hit_latency, accept_latency;
  double wall = 0.0;
  double cpu = 0.0;
  double rss_mb = 0.0;
  double journal_bytes = 0.0;
  std::map<std::string, long> stats;
  JobTable table;
  std::map<std::string, long> key_solves;  // computed jobs
};

long stat_value(const Json& ev, const char* key) {
  const Json* v = ev.find(key);
  if (!v) return -1;
  return v->kind() == Json::Kind::kString ? std::stol(v->as_str())
                                           : static_cast<long>(v->as_num());
}

bool read_stats(Daemon& d, std::map<std::string, long>* out) {
  if (!d.send("{\"op\":\"stats\"}")) return false;
  std::string line;
  while (d.read_line(&line, 60.0)) {
    std::optional<Json> ev = Json::parse(line);
    if (!ev || !ev->find("event") || ev->find("event")->as_str() != "stats")
      continue;
    if (out)
      for (const auto& [k, v] : ev->members())
        if (k != "event") (*out)[k] = stat_value(*ev, k.c_str());
    return true;
  }
  return false;
}

/// Spawning xplaind until its first stats reply.
double spawn_once(const Args& a, int i, bool* ok) {
  const std::string journal = fresh_path(a, "setup" + std::to_string(i) + ".journal");
  const double t0 = now_s();
  Daemon d(a.xplaind, journal, kCacheMaxBytes, kDaemonWorkers,
           a.work_dir + "/xplaind.log");
  const bool up = d.running() && read_stats(d, nullptr);
  const double t = now_s() - t0;
  *ok &= up && d.shutdown(30.0);
  return t;
}

struct Submission {
  Request req;
  double t_submit = 0.0;
  long expected = 0;
  long received = 0;
  /// Job events in arrival order, checked when the submission is done.
  std::vector<std::pair<bool, Json>> events;
};

void run_daemon(const Args& a, Report& r, DaemonRun* run) {
  const std::string journal = fresh_path(a, "service.journal");
  Daemon d(a.xplaind, journal, kCacheMaxBytes, kDaemonWorkers,
           a.work_dir + "/xplaind.log");
  r.check("service.daemon_started", d.running() && read_stats(d, nullptr));
  if (!d.running()) return;

  RequestStream stream(a.seed, a.smoke);
  std::map<long, Submission> open;
  // Latest computed answer per key (cached answers must equal it byte for
  // byte apart from "index") and the first one, scrubbed (a recomputation
  // after eviction must reproduce it).
  std::map<std::string, std::string> latest, first;
  long next_id = 1;
  long count_bad = 0, identity_bad = 0, recompute_bad = 0, fingerprint_bad = 0;
  long errors = 0, protocol_bad = 0;
  const double t_start = now_s();
  const double cpu0 = d.cpu_s();
  double t_last = t_start;

  const auto finish = [&](long id, Submission& s) {
    if (s.received != s.expected) ++count_bad;
    // Computed answers first: an in-flight waiter's cached copy can reach
    // the pipe before its owner's computed one.
    for (int pass = 0; pass < 2; ++pass) {
      for (auto& [cached, job] : s.events) {
        if (cached != (pass == 1)) continue;
        std::optional<JobSummary> js = JobSummary::from_json_value(job);
        if (!js) {
          ++protocol_bad;
          continue;
        }
        std::uint64_t seed = 0;
        const xplain::PipelineOptions o =
            xplain::derived_job_options(s.req.spec, js->index, &seed);
        if (o.fingerprint() != js->options_fingerprint || seed != js->seed)
          ++fingerprint_bad;
        const std::string key = job_key(*js);
        Json copy = job;
        copy.set("index", 0);
        const std::string raw = copy.dump(0);
        if (cached) {
          auto it = latest.find(key);
          if (it == latest.end() || it->second != raw) ++identity_bad;
        } else {
          JobSummary z = *js;
          z.index = 0;
          const std::string scrubbed = scrubbed_job_json(z);
          auto [it, fresh] = first.emplace(key, scrubbed);
          if (!fresh && it->second != scrubbed) ++recompute_bad;
          latest[key] = raw;
          run->key_solves[key] = js->lp_solves;
        }
        if (!js->ok) ++run->failed;
        run->significant += js->significant;
        run->table[{id, js->index}] = scrubbed_job_json(*js);
      }
    }
  };

  for (;;) {
    while (open.size() < kWindow && now_s() - t_start < a.seconds) {
      Submission s;
      s.req = stream.next();
      s.expected = static_cast<long>(xplain::Engine().expand(s.req.spec).size());
      s.t_submit = now_s();
      if (!d.send(submit_line(s.req.spec, next_id))) {
        ++protocol_bad;
        break;
      }
      run->requests.push_back(s.req);
      open.emplace(next_id++, std::move(s));
    }
    if (open.empty()) break;
    std::string line;
    if (!d.read_line(&line, 120.0)) {
      ++protocol_bad;
      break;
    }
    const double t = now_s();
    std::optional<Json> ev = Json::parse(line);
    const Json* kind = ev ? ev->find("event") : nullptr;
    const Json* idv = ev ? ev->find("id") : nullptr;
    auto it = idv ? open.find(static_cast<long>(idv->as_num())) : open.end();
    if (!kind || it == open.end()) {
      ++protocol_bad;
      continue;
    }
    Submission& s = it->second;
    const std::string& k = kind->as_str();
    if (k == "accepted") {
      run->accept_latency.push_back(t - s.t_submit);
      if (stat_value(*ev, "jobs") != s.expected) ++count_bad;
    } else if (k == "job") {
      const Json* job = ev->find("job");
      const Json* cached = ev->find("cached");
      if (!job || !cached) {
        ++protocol_bad;
        continue;
      }
      ++s.received;
      ++run->jobs;
      run->latency.push_back(t - s.t_submit);
      if (cached->as_bool()) {
        ++run->hits_seen;
        run->hit_latency.push_back(t - s.t_submit);
      }
      s.events.emplace_back(cached->as_bool(), *job);
    } else if (k == "done") {
      finish(it->first, s);
      t_last = t;
      open.erase(it);
    } else {
      ++errors;
      run->failed += s.expected - s.received;
      open.erase(it);
    }
  }
  run->wall = t_last - t_start;
  run->cpu = d.cpu_s() - cpu0;
  r.check("service.stats_reply", read_stats(d, &run->stats));
  run->rss_mb = d.peak_rss_mb();
  run->journal_bytes = file_bytes(journal);
  r.check("service.clean_shutdown", d.shutdown(60.0));

  r.check("output.one_job_event_per_job", count_bad == 0,
          std::to_string(count_bad) + " submissions off");
  r.check("output.cached_jobs_identical", identity_bad == 0,
          std::to_string(identity_bad) + " of " + std::to_string(run->hits_seen));
  r.check("output.recomputed_jobs_identical", recompute_bad == 0,
          std::to_string(recompute_bad) + " differ");
  r.check("output.job_fingerprints", fingerprint_bad == 0,
          std::to_string(fingerprint_bad) + " mismatched");
  r.check("output.no_error_events", errors == 0 && protocol_bad == 0,
          std::to_string(errors) + " errors, " + std::to_string(protocol_bad) +
              " protocol");
  const long hits = run->stats["cache_hits"];
  const long misses = run->stats["cache_misses"];
  r.check("reconcile.hits_plus_misses", hits + misses == run->jobs,
          std::to_string(hits) + "+" + std::to_string(misses) +
              " == " + std::to_string(run->jobs));
  r.check("guard.cache_hits", hits > 0);
  r.check("guard.cache_inflight_waits", run->stats["cache_inflight_waits"] > 0);
  r.check("guard.cache_evictions", run->stats["cache_evictions"] > 0);
}

struct Replay {
  double wall = 0.0;
  long lp_solves = 0;       // lp_counters() delta over the service's life
  long computed_solves = 0;  // summed per-job solves of computed jobs
  long failed = 0;
  long validated = 0;  // subspaces of computed jobs
  xplain::server::ServiceStats stats;
  JobTable table;
  std::map<std::string, long> key_solves;
  std::vector<double> submit_t, done_t;
};

Replay replay(const Args& a, const std::vector<Request>& reqs, bool traced) {
  xplain::server::ServiceOptions so;
  so.workers = kDaemonWorkers;
  so.cache_max_bytes = kCacheMaxBytes;
  so.cache_path = fresh_path(a, traced ? "replay-traced.journal" : "replay.journal");
  Replay out;
  Tracer& tracer = Tracer::instance();
  const int pass = traced ? tracer.begin_pass("pass") : -1;
  const xplain::solver::LpCounters lp0 = xplain::solver::lp_counters();
  {
    xplain::server::Service svc(so);
    const double t0 = now_s();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      xplain::ExperimentSpec spec = reqs[i].spec;
      if (traced)
        for (auto& c : spec.cases) c = Tracer::key(c);
      std::mutex mu;
      std::vector<std::pair<JobSummary, bool>> got;
      out.submit_t.push_back(now_s());
      svc.run(spec, [&](const JobSummary& s, bool from_cache) {
        std::lock_guard<std::mutex> lock(mu);
        got.emplace_back(s, from_cache);
      });
      out.done_t.push_back(now_s());
      for (const auto& [s, from_cache] : got) {
        const long id = static_cast<long>(i) + 1;
        out.table[{id, s.index}] = scrubbed_job_json(s);
        if (!s.ok) ++out.failed;
        if (from_cache) continue;
        out.validated += s.subspaces;
        out.computed_solves += s.lp_solves;
        JobSummary z = s;
        z.case_name = Tracer::unkey(z.case_name);
        out.key_solves[job_key(z)] = s.lp_solves;
      }
    }
    out.wall = now_s() - t0;
    out.stats = svc.stats();
    svc.shutdown();
  }
  // The pool threads have exited, so their solver tallies are retired and
  // visible here.
  out.lp_solves =
      lp_delta(lp0, xplain::solver::lp_counters()).solves;
  if (traced) tracer.end(pass);
  return out;
}

}  // namespace

void run_service(const Args& a, Report& r) {
  if (a.xplaind.empty()) {
    r.check("service.xplaind_given", false, "--xplaind is required");
    return;
  }
  // The traced run spends a third of its time on the daemon and the rest on
  // replaying the same requests in process, untraced and traced.
  Args daemon_args = a;
  if (a.trace && !a.smoke) daemon_args.seconds = a.seconds / 3;
  DaemonRun run;
  run_daemon(daemon_args, r, &run);
  const double jobs = static_cast<double>(std::max<long>(1, run.jobs));
  r.attempted = std::max<long>(1, run.jobs);
  r.failed = run.failed;
  r.text("digest.run", table_digest(run.table));
  r.note("submissions", static_cast<double>(run.requests.size()), "count");
  r.note("latency_samples", static_cast<double>(run.latency.size()), "count");
  r.note("failed_frac", static_cast<double>(run.failed) / jobs, "ratio");
  r.note("significant_subspaces", static_cast<double>(run.significant), "count");
  r.note("cached_job_share", static_cast<double>(run.hits_seen) / jobs, "ratio");
  r.check("output.all_jobs_ok", run.failed == 0);

  if (!a.trace) {
    // Set-up is timed after the daemon run, on a CPU that has left idle.
    bool setup_ok = true;
    std::vector<double> setups;
    for (int i = 0; i < (a.smoke ? 3 : kSetupReps); ++i)
      setups.push_back(spawn_once(a, i, &setup_ok));
    r.check("setup.daemon_spawn", setup_ok);
    r.metric("setup_s", median(setups), "s");
    r.metric("jobs_per_s", static_cast<double>(run.jobs) / run.wall, "jobs/s");
    r.metric("job_latency_p50_s", quantile(run.latency, 0.5), "s");
    r.metric("job_latency_p90_s", quantile(run.latency, 0.9), "s");
    r.metric("cpu_s_per_job", run.cpu / jobs, "s");
    r.metric("peak_rss_mb", run.rss_mb, "MB");
    return;
  }

  Tracer::instance().register_cases(
      {"first_fit", "best_fit", "wcmp", "demand_pinning_chain"});
  const Replay ref = replay(a, run.requests, false);
  const Replay got = replay(a, run.requests, true);
  std::vector<Span> spans = Tracer::instance().take();
  const LayerTotals t = summarize(spans);

  const std::string daemon_digest = table_digest(run.table);
  r.check("reconcile.digest.replay", table_digest(ref.table) == daemon_digest);
  r.check("reconcile.digest.traced", table_digest(got.table) == daemon_digest);
  r.check("reconcile.lp_solves", got.lp_solves == got.computed_solves &&
                                     ref.lp_solves == ref.computed_solves &&
                                     t.lp_solves == got.lp_solves,
          std::to_string(got.lp_solves) + " vs " +
              std::to_string(got.computed_solves));
  long solve_mismatch = 0;
  for (const auto& [key, solves] : got.key_solves) {
    auto it = run.key_solves.find(key);
    if (it != run.key_solves.end() && it->second != solves) ++solve_mismatch;
  }
  r.check("reconcile.per_job_lp_solves", solve_mismatch == 0,
          std::to_string(solve_mismatch) + " keys differ");
  r.check("reconcile.replay_hits_plus_misses",
          got.stats.cache_hits + got.stats.cache_misses == got.stats.jobs_completed);
  r.check("output.replay_jobs_ok", got.failed == 0 && ref.failed == 0);

  std::vector<double> queue_wait, compute;
  for (const Span& s : spans) {
    if (s.name != "job") continue;
    compute.push_back(s.seconds());
    for (std::size_t i = 0; i < got.submit_t.size(); ++i)
      if (s.start >= got.submit_t[i] && s.start <= got.done_t[i])
        queue_wait.push_back(s.start - got.submit_t[i]);
  }

  LayerExtras x;
  x.trace_overhead_frac = got.wall / ref.wall - 1.0;
  x.validated_known = true;
  x.validated = got.validated;
  x.worker_idle_frac = 1.0 - t.job_busy / (kDaemonWorkers * got.wall);
  x.has_server = true;
  x.cache_hits = run.stats["cache_hits"];
  x.cache_misses = run.stats["cache_misses"];
  x.cache_inflight_waits = run.stats["cache_inflight_waits"];
  x.cache_evictions = run.stats["cache_evictions"];
  x.server_case_builds = run.stats["case_builds"];
  x.journal_bytes = run.journal_bytes;
  x.accept_s_p50 = quantile(run.accept_latency, 0.5);
  x.queue_wait_s_p50 = quantile(queue_wait, 0.5);
  x.queue_wait_s_p90 = quantile(queue_wait, 0.9);
  x.compute_s_p50 = quantile(compute, 0.5);
  x.hit_latency_s_p50 = quantile(run.hit_latency, 0.5);
  emit_layers(r, t, x);
  const std::string path = a.work_dir + "/spans-" + a.workload + ".json";
  r.check("trace.span_file", write_spans(path, spans), path);
  r.text("trace.span_file", path);
}

}  // namespace perfbench
