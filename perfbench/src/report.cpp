#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench.h"
#include "tracer.h"

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) check("finite:" + name, false, "value is not finite");
  metrics_[name] = {value, unit};
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  notes_.push_back({name, {value, unit}});
}

void Report::text(const std::string& name, const std::string& value) {
  texts_.push_back({name, value});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

bool Report::all_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void Report::print() const {
  for (const auto& [name, v] : metrics_)
    std::cout << "metric " << name << " " << num(v.value) << " " << v.unit
              << "\n";
  for (const auto& [name, v] : notes_)
    std::cout << "note   " << name << " " << num(v.value) << " " << v.unit
              << "\n";
  for (const auto& [name, value] : texts_)
    std::cout << "text   " << name << " " << value << "\n";
  for (const Check& c : checks_)
    std::cout << "check  " << c.name << " " << (c.ok ? "ok" : "FAIL")
              << (c.detail.empty() ? "" : " " + c.detail) << "\n";
  std::string json = "{\"correct\": ";
  json += all_ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += json_str(name) + ": {\"value\": " + num(v.value) +
            ", \"unit\": " + json_str(v.unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

void emit_layers(Report& r, const LayerTotals& t, const LayerExtras& x) {
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto d = [](long v) { return static_cast<double>(v); };

  r.metric("solver.solves", d(t.lp_solves), "count");
  r.metric("solver.pivots", d(t.lp_pivots), "count");
  r.metric("solver.pivots_per_solve", ratio(d(t.lp_pivots), d(t.lp_solves)),
           "ratio");
  r.metric("solver.warm_frac", ratio(d(t.lp_warm), d(t.lp_solves)), "ratio");
  r.metric("solver.columns_priced_per_pivot",
           ratio(d(t.lp_priced), d(t.lp_pivots)), "ratio");
  r.metric("solver.solves_per_gap_call", ratio(d(t.gap_solves), d(t.gap_calls)),
           "ratio");

  r.metric("cases.build_s", t.build_s, "s");
  r.metric("cases.builds", d(t.builds), "count");
  r.metric("cases.gap_calls", d(t.gap_calls), "count");
  r.metric("cases.gap_busy_s", t.gap_busy, "s");
  r.metric("cases.gap_us", 1e6 * ratio(t.gap_busy, d(t.gap_calls)), "us");
  r.metric("cases.oracle_calls", d(t.oracle_calls), "count");

  r.metric("analyzer.calls", d(t.analyzer_calls), "count");
  r.metric("analyzer.busy_s", t.analyzer_busy, "s");
  r.metric("analyzer.gap_calls", d(t.analyzer_gap_calls), "count");
  r.metric("analyzer.found_frac",
           ratio(d(t.analyzer_found), d(t.analyzer_calls)), "ratio");

  const long rejected = x.validated_known ? t.analyzer_found - x.validated : 0;
  r.metric("subspace.self_s", t.subspace_self, "s");
  r.metric("subspace.gap_calls", d(t.subspace_gap_calls), "count");
  r.metric("subspace.validated", d(x.validated), "count");
  r.metric("subspace.rejected", d(rejected), "count");
  r.metric("subspace.valid_frac",
           x.validated_known ? ratio(d(x.validated), d(t.analyzer_found)) : 0.0,
           "ratio");

  r.metric("explain.samples", d(t.oracle_accepted), "count");
  r.metric("explain.gap_calls", d(t.explain_gap_calls), "count");

  r.metric("generalize.observations", d(x.observations), "count");
  r.metric("generalize.predicates", d(x.predicates), "count");

  r.metric("xplain.job_s_p50", median(t.job_seconds), "s");
  r.metric("xplain.job_s_max", quantile(t.job_seconds, 1.0), "s");
  r.metric("engine.worker_idle_frac", x.worker_idle_frac, "ratio");
  r.metric("engine.case_builds", d(x.engine_case_builds), "count");

  r.metric("server.cache_hits", d(x.cache_hits), "count");
  r.metric("server.cache_misses", d(x.cache_misses), "count");
  r.metric("server.cache_inflight_waits", d(x.cache_inflight_waits), "count");
  r.metric("server.cache_evictions", d(x.cache_evictions), "count");
  r.metric("server.hit_frac",
           ratio(d(x.cache_hits), d(x.cache_hits + x.cache_misses)), "ratio");
  r.metric("server.case_builds", d(x.server_case_builds), "count");
  r.metric("server.journal_bytes", x.journal_bytes, "bytes");

  r.metric("search.evals", d(x.evals), "count");
  r.metric("search.generations", d(x.generations), "count");
  r.metric("search.offers", d(x.offers), "count");
  r.metric("search.accept_frac", ratio(d(x.accepted), d(x.offers)), "ratio");
  r.metric("search.coverage_buckets", d(x.coverage_buckets), "count");
  r.metric("search.evals_per_discovery", ratio(d(x.evals), d(x.discoveries)),
           "ratio");

  r.metric("trace_overhead_frac", x.trace_overhead_frac, "ratio");

  // Layer times that are structurally absent on some workloads (no oracle
  // or explain stage in probe mode, no generalizer in the fuzzer or the
  // request stream, no server outside service_mix): printed beside the
  // metrics where they exist, never as a constant zero.
  if (t.oracle_calls > 0) {
    r.note("cases.oracle_busy_s", t.oracle_busy, "s");
    r.note("explain.busy_s", t.explain_busy, "s");
  }
  if (t.generalize_busy > 0) r.note("generalize.busy_s", t.generalize_busy, "s");
  if (x.has_server) {
    r.note("server.accept_s_p50", x.accept_s_p50, "s");
    r.note("server.queue_wait_s_p50", x.queue_wait_s_p50, "s");
    r.note("server.queue_wait_s_p90", x.queue_wait_s_p90, "s");
    r.note("server.compute_s_p50", x.compute_s_p50, "s");
    r.note("server.hit_latency_s_p50", x.hit_latency_s_p50, "s");
  }
  if (!x.validated_known)
    r.text("subspace.validated", "not observable on this workload");

  r.check("reconcile.gap_calls",
          t.analyzer_gap_calls + t.subspace_gap_calls + t.explain_gap_calls ==
              t.gap_calls,
          std::to_string(t.analyzer_gap_calls) + "+" +
              std::to_string(t.subspace_gap_calls) + "+" +
              std::to_string(t.explain_gap_calls) +
              " == " + std::to_string(t.gap_calls));
  r.check("reconcile.single_thread_jobs", foreign_thread_calls() == 0,
          std::to_string(foreign_thread_calls()) + " foreign calls");
}

namespace {

void scrub(xplain::JobSummary& j) {
  j.wall_seconds = 0.0;
  j.lp_solves = j.lp_iterations = 0;
  j.lp_columns_priced = j.lp_candidate_refills = 0;
}

}  // namespace

std::string scrubbed_json(xplain::ExperimentSummary s) {
  s.wall_seconds = 0.0;
  s.lp_solves = s.lp_iterations = 0;
  s.lp_columns_priced = s.lp_candidate_refills = 0;
  for (auto& j : s.jobs) scrub(j);
  return Tracer::unkey(s.to_json(0));
}

std::string scrubbed_job_json(xplain::JobSummary j) {
  scrub(j);
  return Tracer::unkey(j.to_json_value().dump(0));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string digest(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

}  // namespace perfbench
