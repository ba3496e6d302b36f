// Resident-service acceptance bench: the same replication grid is answered
// by (a) cold per-grid Engine runs — one fresh Engine::run per submission,
// the paper's one-study-per-process workflow — and (b) one resident
// xplain::server::Service that keeps its worker pool, case instances, and
// content-addressed result cache across submissions.  The gate is the
// ISSUE acceptance criterion: the resident service answers the repeated
// grid at >= 2x the cold path's jobs/sec, with the cached rounds bitwise
// identical to the first.
//
// Two counter families make the run machine-independently checkable
// (tools/bench_compare.py gates them exactly in CI):
//
//   * cache_hits / cache_misses / cache_entries — (rounds-1) x jobs hits,
//     jobs misses: the cache serves every repeat from memory;
//   * case_builds — the service and Engine::run run jobs through the same
//     JobRunner, whose instance memo constructs each unique
//     (case, scenario.cache_key()) instance ONCE while jobs naming it are
//     unfinished, not once per job: a replication grid with R replicas per
//     scenario builds jobs/R instances per run (engine_case_builds), and
//     the service's later rounds are cache hits that build nothing
//     (service_case_builds).
//
// Two hardening phases extend the acceptance gate:
//
//   * eviction — a service whose cache_max_bytes holds exactly two entries
//     answers a 6-job grid twice: every insert past the bound evicts the
//     LRU entry, the high-water mark holds, and the counters gate exactly.
//     The second round looks up all six jobs before any is computed, so
//     the two entries still resident from the first round (jobs 4 and 5)
//     are hits: 10 inserts, 8 evictions, 2 hits, 2 resident;
//   * persistence — a service with a cache_path journal answers the
//     replication grid, shuts down (compacting the journal), and a SECOND
//     service on the same path replays the working set: every job served
//     from cache, bitwise identical, ZERO new LP solves.
//
// Everything runs single-threaded (pool of 1, explain.workers = 1) so the
// committed BENCH_bench_service.json baseline's lp_iterations is an exact
// reproduction target; throughput and speedup are wall-clock and are
// scrubbed from the comparison.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "engine/engine.h"
#include "scenario/spec.h"
#include "server/service.h"
#include "solver/lp.h"
#include "util/table.h"
#include "util/timer.h"

using namespace xplain;

namespace {

scenario::ScenarioSpec line(int n) {
  scenario::ScenarioSpec s;
  s.kind = scenario::TopologyKind::kLine;
  s.size = n;
  return s;
}

/// A replication grid: each scenario appears kReplicas times, and
/// reseed_jobs derives a distinct seed per grid index — decorrelated
/// replications of the same instances (the shape ROADMAP's query streams
/// have: same topology, fresh seeds).
constexpr int kReplicas = 2;
constexpr int kRounds = 3;  // identical submissions against the service

ExperimentSpec replication_grid() {
  ExperimentSpec spec;
  spec.cases = {"first_fit", "demand_pinning_chain"};
  for (int r = 0; r < kReplicas; ++r)
    for (int n : {3, 4, 5}) spec.scenarios.push_back(line(n));
  spec.options.min_gap = 1.0;
  spec.options.subspace.max_subspaces = 1;
  spec.options.subspace.tree_samples = 120;
  spec.options.subspace.significance.pairs = 40;
  spec.options.subspace.significance.p_threshold = 0.5;
  spec.options.explain.samples = 80;
  spec.options.explain.workers = 1;  // single-threaded: exact baseline
  spec.workers = 1;
  spec.grammar.p_threshold = 0.5;
  return spec;
}

std::string job_json(const JobSummary& s) { return s.to_json_value().dump(0); }

}  // namespace

int main() {
  tools::BenchReport bench_report("bench_service");
  std::cout << "Resident explanation service vs cold per-grid Engine runs\n\n";

  const ExperimentSpec spec = replication_grid();
  const int jobs_per_round = static_cast<int>(Engine().expand(spec).size());
  const int unique_instances =
      static_cast<int>(spec.cases.size()) * 3;  // 3 distinct line sizes

  // --- 1. Cold path: one fresh Engine::run per submission, kRounds
  // times.  Within each run the instance memo still builds each unique
  // instance once (engine_case_builds). ---
  util::Timer cold_timer;
  int engine_case_builds = 0;
  for (int round = 0; round < kRounds; ++round) {
    const ExperimentResult r = Engine().run(spec);
    engine_case_builds = r.case_builds;
    if (static_cast<int>(r.jobs.size()) != jobs_per_round) {
      std::cout << "[MISMATCH] cold round produced " << r.jobs.size()
                << " jobs, expected " << jobs_per_round << "\n";
      return 1;
    }
  }
  const double cold_seconds = cold_timer.seconds();
  const double cold_jps = kRounds * jobs_per_round / cold_seconds;
  std::cout << "cold: " << kRounds << " x Engine::run, "
            << kRounds * jobs_per_round << " jobs in " << cold_seconds
            << "s (" << cold_jps << " jobs/s); " << engine_case_builds
            << " case builds per round for " << jobs_per_round
            << " jobs (one per unique instance)\n";

  // --- 2. Resident path: one Service, the identical spec submitted
  // kRounds times.  Round 1 computes and fills the cache; rounds 2..k are
  // served from memory, bitwise identical. ---
  server::ServiceOptions so;
  so.workers = 1;
  server::Service svc(so);
  std::vector<std::string> first_round;
  std::string first_round_doc;
  bool replay_identical = true;
  util::Timer service_timer;
  for (int round = 0; round < kRounds; ++round) {
    const ExperimentSummary s = svc.run(spec);
    if (round == 0) {
      for (const JobSummary& j : s.jobs) first_round.push_back(job_json(j));
      first_round_doc = s.to_json();
      continue;
    }
    for (std::size_t i = 0; i < s.jobs.size(); ++i)
      replay_identical &= job_json(s.jobs[i]) == first_round[i];
  }
  const double service_seconds = service_timer.seconds();
  const double service_jps = kRounds * jobs_per_round / service_seconds;
  const server::ServiceStats stats = svc.stats();
  svc.shutdown();

  const double speedup = cold_jps > 0.0 ? service_jps / cold_jps : 0.0;
  util::Table t({"path", "jobs", "seconds", "jobs/s"});
  t.add_row({"cold engine", std::to_string(kRounds * jobs_per_round),
             util::format_double(cold_seconds), util::format_double(cold_jps)});
  t.add_row({"resident service", std::to_string(kRounds * jobs_per_round),
             util::format_double(service_seconds),
             util::format_double(service_jps)});
  t.print(std::cout);
  std::cout << "\nspeedup " << speedup << "x; cache "
            << stats.cache_hits << " hits / " << stats.cache_misses
            << " misses / " << stats.cache_entries << " entries; "
            << stats.case_builds << " case builds across all rounds; replay "
            << (replay_identical ? "bitwise identical" : "DIVERGED") << "\n";

  bench_report.metric("rounds", kRounds);
  bench_report.metric("jobs_per_round", jobs_per_round);
  bench_report.metric("cold_seconds", cold_seconds);
  bench_report.metric("cold_jobs_per_sec", cold_jps);
  bench_report.metric("service_seconds", service_seconds);
  bench_report.metric("service_jobs_per_sec", service_jps);
  bench_report.metric("service_speedup", speedup);
  // Service accounting is deterministic by construction: hits and misses
  // follow from the submission pattern, case builds from the grid's unique
  // instances.
  bench_report.count("cache_hits", stats.cache_hits);
  bench_report.count("cache_misses", stats.cache_misses);
  bench_report.count("cache_entries", static_cast<long>(stats.cache_entries));
  bench_report.count("service_case_builds", stats.case_builds);
  bench_report.count("engine_case_builds", engine_case_builds);
  bench_report.count("replay_identical", replay_identical ? 1 : 0);
  // The round-1 summary document: bench_compare diffs it structurally
  // (gaps, features, trends) against the baseline after scrubbing clocks
  // and LP counters — the service's output is a deterministic engine
  // artifact, so cross-machine divergence is a behavior change.
  bench_report.raw("service_experiment", first_round_doc);

  // The counters the resident design promises, stated as exact equalities
  // (bench_compare gates the committed values at 0% drift).
  const bool counters_ok =
      stats.cache_misses == jobs_per_round &&
      stats.cache_hits == static_cast<long>(kRounds - 1) * jobs_per_round &&
      stats.cache_entries == static_cast<std::size_t>(jobs_per_round) &&
      stats.case_builds == unique_instances &&
      engine_case_builds == unique_instances &&
      stats.duplicate_deliveries == 0;

  // --- 3. Eviction: a cache bounded to exactly two entries under a
  // working set three times that size.  The single-case grid keeps entry
  // sizes near-uniform (same case/feature/scenario-name shapes), so
  // "2.3 entries worth of bytes" robustly admits two and rejects three
  // even though JSON sizes jitter by a few bytes across machines
  // (wall_seconds digit counts vary — which is also why raw byte counts
  // are NOT emitted as metrics, only derived deterministic counters). ---
  ExperimentSpec evict_spec = spec;
  evict_spec.cases = {"first_fit"};
  const int evict_jobs = static_cast<int>(Engine().expand(evict_spec).size());
  std::size_t one_entry_bytes = 0;
  {
    ExperimentSpec probe_spec = evict_spec;
    probe_spec.scenarios = {line(3)};
    server::ServiceOptions po;
    po.workers = 1;
    server::Service probe(po);
    probe.run(probe_spec);
    one_entry_bytes = probe.stats().cache_bytes;
  }
  server::ServiceOptions eo;
  eo.workers = 1;
  eo.cache_max_bytes = one_entry_bytes * 23 / 10;
  server::Service esvc(eo);
  bool high_water_ok = true;
  for (int round = 0; round < 2; ++round) {
    esvc.run(evict_spec);
    high_water_ok &= esvc.stats().cache_bytes <= eo.cache_max_bytes;
  }
  const server::ServiceStats estats = esvc.stats();
  esvc.shutdown();
  std::cout << "\neviction: bound " << eo.cache_max_bytes << " bytes (~2.3 of "
            << one_entry_bytes << "-byte entries); " << estats.cache_misses
            << " inserts -> " << estats.cache_evictions << " evictions, "
            << estats.cache_hits << " hits, " << estats.cache_entries
            << " resident, high-water "
            << (high_water_ok ? "held" : "BREACHED") << "\n";

  // --- 4. Persistence: journal across a restart. ---
  const std::string journal = "BENCH_bench_service.journal";
  std::remove(journal.c_str());
  server::ServiceOptions jo;
  jo.workers = 1;
  jo.cache_path = journal;
  std::vector<std::string> persisted;
  {
    server::Service first_life(jo);
    const ExperimentSummary s = first_life.run(spec);
    for (const JobSummary& j : s.jobs) persisted.push_back(job_json(j));
  }  // destruction = clean shutdown: the journal is compacted
  const solver::LpCounters lp_before_restart = solver::lp_counters();
  long journal_entries = 0;
  int restart_cached = 0;
  bool restart_identical = true;
  {
    server::Service second_life(jo);
    journal_entries = second_life.stats().cache_replayed;
    const ExperimentSummary s = second_life.run(
        spec, [&restart_cached](const JobSummary&, bool from_cache) {
          if (from_cache) ++restart_cached;  // serialized per submission
        });
    for (std::size_t i = 0; i < s.jobs.size(); ++i)
      restart_identical &= job_json(s.jobs[i]) == persisted[i];
  }
  const long restart_solves =
      solver::lp_counters().solves - lp_before_restart.solves;
  std::remove(journal.c_str());
  std::cout << "persistence: " << journal_entries << " entries replayed from "
            << "the journal; restarted service answered " << restart_cached
            << "/" << jobs_per_round << " jobs from cache, "
            << (restart_identical ? "bitwise identical" : "DIVERGED") << ", "
            << restart_solves << " new LP solves\n";

  bench_report.count("evict_cache_inserts", estats.cache_misses);
  bench_report.count("evict_cache_evictions", estats.cache_evictions);
  bench_report.count("evict_cache_entries",
                     static_cast<long>(estats.cache_entries));
  bench_report.count("evict_cache_high_water_ok", high_water_ok ? 1 : 0);
  bench_report.count("replay_journal_entries", journal_entries);
  bench_report.count("replay_cached_jobs", restart_cached);
  bench_report.count("replay_restart_identical", restart_identical ? 1 : 0);
  bench_report.count("replay_restart_lp_solves", restart_solves);

  // With one resident slot always exempt (MRU) and near-uniform entry
  // sizes, a 2.3-entry bound holds exactly two entries: every insert past
  // the first two evicts exactly one.  Round 2's lookups all run at
  // submit, before its first insert, so round 1's two survivors are hits.
  const bool evict_ok =
      estats.cache_hits == 2 &&
      estats.cache_misses == 2 * evict_jobs - 2 &&
      estats.cache_evictions == 2 * evict_jobs - 4 &&
      estats.cache_entries == 2u && high_water_ok;
  const bool persist_ok =
      journal_entries == jobs_per_round &&
      restart_cached == jobs_per_round && restart_identical &&
      restart_solves == 0;

  const bool ok =
      counters_ok && replay_identical && speedup >= 2.0 && evict_ok &&
      persist_ok;
  std::cout << "\nAcceptance: repeated grid served from cache bitwise "
               "identical, each unique instance built once per lifetime "
               "(service) / per run (engine), resident throughput >= 2x the "
               "cold path; bounded cache holds its high-water mark with "
               "exact LRU accounting; restarted service replays the "
               "journaled working set bitwise with zero new LP solves.\n"
            << (ok ? "[REPRODUCED]" : "[MISMATCH]") << "\n";
  return ok ? 0 : 1;
}
