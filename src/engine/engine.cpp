#include "engine/engine.h"

#include <algorithm>
#include <type_traits>

#include "engine/job_runner.h"
#include "generalize/grammar.h"
#include "solver/lp.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace xplain {

namespace {

/// Reads one member of a summary document (`v`; null when absent) through
/// util::read_value.  An absent member reads T{} (0, "" or false); a
/// member of the wrong JSON kind clears *valid, so a cache journal record
/// of the wrong shape is never served.  A null double reads 0: to_json
/// writes a non-finite double as null.
template <class T>
T read_member(const util::Json* v, bool* valid) {
  T out{};
  if (!v || (std::is_same_v<T, double> && v->is_null())) return out;
  if (!util::read_value(*v, "", &out, nullptr)) *valid = false;
  return out;
}

/// Serializes the user's JobCallback across pool workers.  A named class
/// (not a lambda-captured local mutex) so clang's thread-safety analysis
/// sees the callback/mutex pairing: user callbacks are not required to be
/// re-entrant, and the annotation machine-checks that every invocation
/// goes through emit().  Completion ORDER still depends on scheduling;
/// job CONTENT does not (slot determinism).
class CallbackStream {
 public:
  explicit CallbackStream(const Engine::JobCallback& cb)
      : has_cb_(static_cast<bool>(cb)), cb_(cb) {}

  void emit(const JobResult& jr) XPLAIN_EXCLUDES(mu_) {
    util::MutexLock lock(&mu_);
    cb_(jr);
  }

  explicit operator bool() const { return has_cb_; }

 private:
  const bool has_cb_;  // immutable after construction: safe to read unlocked
  util::Mutex mu_;
  /// The callback itself is immutable; mu_ guards its *invocation* — what
  /// GUARDED_BY expresses here is "calls are mutually excluded".
  const Engine::JobCallback& cb_ XPLAIN_GUARDED_BY(mu_);
};

}  // namespace

PipelineOptions derived_job_options(const ExperimentSpec& spec, int index,
                                    std::uint64_t* seed_out) {
  // Every job's RNG streams derive purely from (spec seed, base options,
  // grid index): decorrelated across jobs and experiments, identical for
  // any worker count.  With an option axis the variant is recovered from
  // the index alone (variants are the innermost expand() loop), keeping
  // this a pure function of (spec, index) — the contract the server's
  // worker pool replays jobs through.
  const std::size_t n_variants = spec.option_variants.size();
  const PipelineOptions& base =
      n_variants == 0
          ? spec.options
          : spec.option_variants[static_cast<std::size_t>(index) % n_variants];
  if (!spec.reseed_jobs) {
    if (seed_out) *seed_out = base.seed_salt;
    return base;
  }
  const std::uint64_t salt = util::Rng::derive_seed(spec.seed, index + 1);
  if (seed_out) *seed_out = salt;
  return apply_seed_salt(base, salt);
}

bool JobSummary::operator==(const JobSummary& o) const {
  return case_name == o.case_name && scenario == o.scenario &&
         index == o.index && ok == o.ok && error == o.error &&
         subspaces == o.subspaces && significant == o.significant &&
         best_gap_found == o.best_gap_found &&
         max_seed_gap == o.max_seed_gap && gap_scale == o.gap_scale &&
         wall_seconds == o.wall_seconds && LpWork::operator==(o) &&
         features == o.features && seed == o.seed &&
         options_fingerprint == o.options_fingerprint;
}

bool TrendSummary::operator==(const TrendSummary& o) const {
  return predicate == o.predicate && feature == o.feature &&
         increasing == o.increasing && rho == o.rho &&
         p_value == o.p_value && support == o.support;
}

bool ExperimentSummary::operator==(const ExperimentSummary& o) const {
  return jobs == o.jobs && trends == o.trends &&
         observations == o.observations && wall_seconds == o.wall_seconds &&
         LpWork::operator==(o);
}

util::Json JobSummary::to_json_value() const {
  util::Json jj = util::Json::object();
  jj.set("case", case_name);
  jj.set("scenario", scenario.empty() ? util::Json() : util::Json(scenario));
  jj.set("index", index);
  jj.set("ok", ok);
  if (!error.empty()) jj.set("error", error);
  jj.set("subspaces", subspaces);
  jj.set("significant", significant);
  jj.set("best_gap_found", best_gap_found);
  jj.set("max_seed_gap", max_seed_gap);
  jj.set("gap_scale", gap_scale);
  jj.set("wall_seconds", wall_seconds);
  write_lp_json(jj);
  // All 64 bits of the salt survive only as a string (doubles clip at
  // 2^53); from_json_value parses it back with util::parse_u64.
  jj.set("seed", std::to_string(seed));
  jj.set("options_fingerprint", options_fingerprint);
  util::Json feats = util::Json::object();
  for (const auto& [k, v] : features) feats.set(k, v);
  jj.set("features", std::move(feats));
  return jj;
}

std::optional<JobSummary> JobSummary::from_json_value(const util::Json& jj) {
  if (jj.kind() != util::Json::Kind::kObject) return std::nullopt;
  bool valid = true;
  JobSummary j;
  j.case_name = read_member<std::string>(jj.find("case"), &valid);
  const util::Json* scenario = jj.find("scenario");
  if (!scenario || !scenario->is_null())  // null: the default instance
    j.scenario = read_member<std::string>(scenario, &valid);
  j.index = read_member<int>(jj.find("index"), &valid);
  j.ok = read_member<bool>(jj.find("ok"), &valid);
  j.error = read_member<std::string>(jj.find("error"), &valid);
  j.subspaces = read_member<int>(jj.find("subspaces"), &valid);
  j.significant = read_member<int>(jj.find("significant"), &valid);
  j.best_gap_found = read_member<double>(jj.find("best_gap_found"), &valid);
  j.max_seed_gap = read_member<double>(jj.find("max_seed_gap"), &valid);
  j.gap_scale = read_member<double>(jj.find("gap_scale"), &valid);
  j.wall_seconds = read_member<double>(jj.find("wall_seconds"), &valid);
  if (!j.read_lp_json(jj)) valid = false;
  j.seed = read_member<std::uint64_t>(jj.find("seed"), &valid);
  j.options_fingerprint =
      read_member<std::string>(jj.find("options_fingerprint"), &valid);
  if (const util::Json* feats = jj.find("features")) {
    if (feats->kind() != util::Json::Kind::kObject) return std::nullopt;
    for (const auto& [k, v] : feats->members())
      j.features[k] = read_member<double>(&v, &valid);
  }
  if (!valid) return std::nullopt;
  return j;
}

std::string ExperimentSummary::to_json(int indent) const {
  util::Json root = util::Json::object();
  util::Json job_arr = util::Json::array();
  for (const auto& j : jobs) job_arr.push(j.to_json_value());
  root.set("jobs", std::move(job_arr));

  util::Json trend_arr = util::Json::array();
  for (const auto& t : trends) {
    util::Json tj = util::Json::object();
    tj.set("predicate", t.predicate);
    tj.set("feature", t.feature);
    tj.set("trend", t.increasing ? "increasing" : "decreasing");
    tj.set("rho", t.rho);
    tj.set("p_value", t.p_value);
    tj.set("support", t.support);
    trend_arr.push(std::move(tj));
  }
  root.set("trends", std::move(trend_arr));
  root.set("observations", observations);
  root.set("wall_seconds", wall_seconds);
  write_lp_json(root);
  return root.dump(indent);
}

std::optional<ExperimentSummary> ExperimentSummary::from_json(
    const std::string& text) {
  const auto parsed = util::Json::parse(text);
  if (!parsed || parsed->kind() != util::Json::Kind::kObject)
    return std::nullopt;
  const util::Json* jobs = parsed->find("jobs");
  const util::Json* trends = parsed->find("trends");
  if (!jobs || jobs->kind() != util::Json::Kind::kArray || !trends ||
      trends->kind() != util::Json::Kind::kArray)
    return std::nullopt;

  bool valid = true;
  ExperimentSummary out;
  for (const auto& jj : jobs->items()) {
    std::optional<JobSummary> j = JobSummary::from_json_value(jj);
    if (!j) return std::nullopt;
    out.jobs.push_back(std::move(*j));
  }
  for (const auto& tj : trends->items()) {
    if (tj.kind() != util::Json::Kind::kObject) return std::nullopt;
    TrendSummary t;
    t.predicate = read_member<std::string>(tj.find("predicate"), &valid);
    t.feature = read_member<std::string>(tj.find("feature"), &valid);
    t.increasing =
        read_member<std::string>(tj.find("trend"), &valid) != "decreasing";
    t.rho = read_member<double>(tj.find("rho"), &valid);
    t.p_value = read_member<double>(tj.find("p_value"), &valid);
    t.support = read_member<int>(tj.find("support"), &valid);
    out.trends.push_back(std::move(t));
  }
  out.observations = read_member<int>(parsed->find("observations"), &valid);
  out.wall_seconds = read_member<double>(parsed->find("wall_seconds"), &valid);
  if (!out.read_lp_json(*parsed)) valid = false;
  if (!valid) return std::nullopt;
  return out;
}

int ExperimentResult::total_subspaces() const {
  int n = 0;
  for (const auto& j : jobs) n += static_cast<int>(j.pipeline.subspaces.size());
  return n;
}

JobSummary make_job_summary(const JobResult& j) {
  JobSummary s;
  static_cast<LpWork&>(s) = j.pipeline.stages;
  s.case_name = j.job.case_name;
  s.scenario = j.job.scenario ? j.job.scenario->display_name() : std::string();
  s.index = j.job.index;
  s.ok = j.ok;
  s.error = j.error;
  s.subspaces = static_cast<int>(j.pipeline.subspaces.size());
  s.significant = j.pipeline.count_significant();
  s.best_gap_found = j.pipeline.best_gap_found;
  s.max_seed_gap = j.pipeline.max_gap();
  s.gap_scale = j.pipeline.gap_scale;
  s.wall_seconds = j.pipeline.wall_seconds;
  s.features = j.pipeline.features;
  s.seed = j.seed;
  s.options_fingerprint = j.options_fingerprint;
  return s;
}

std::vector<TrendSummary> make_trend_summaries(
    const generalize::GeneralizerResult& g) {
  std::vector<TrendSummary> out;
  out.reserve(g.predicates.size());
  for (const auto& p : g.predicates) {
    TrendSummary t;
    t.predicate = p.to_string();
    t.feature = p.feature;
    t.increasing = p.trend == generalize::Trend::kIncreasing;
    t.rho = p.rho;
    t.p_value = p.p_value;
    t.support = p.support;
    out.push_back(std::move(t));
  }
  return out;
}

generalize::GeneralizerResult mine_trends(
    const ExperimentSpec& spec, const std::vector<JobSummary>& jobs) {
  // generalize_batch reads only (features, best gap, gap_scale), and maxes
  // best_gap_found with max_gap(): a slim PipelineResult per ok job.
  std::vector<PipelineResult> slim;
  slim.reserve(jobs.size());
  for (const JobSummary& j : jobs) {
    if (!j.ok) continue;
    PipelineResult r;
    r.features = j.features;
    r.gap_scale = j.gap_scale;
    r.best_gap_found = std::max(j.max_seed_gap, j.best_gap_found);
    slim.push_back(std::move(r));
  }
  return generalize::generalize_batch(slim, spec.grammar, spec.normalize_gap);
}

ExperimentSummary ExperimentResult::summary() const {
  ExperimentSummary out;
  static_cast<LpWork&>(out) = stages;
  out.jobs.reserve(jobs.size());
  for (const auto& j : jobs) out.jobs.push_back(make_job_summary(j));
  out.trends = make_trend_summaries(trends);
  out.observations = static_cast<int>(trends.observations.size());
  out.wall_seconds = wall_seconds;
  return out;
}

std::vector<ExperimentJob> Engine::expand(const ExperimentSpec& spec) const {
  // Variants are the INNERMOST axis so derived_job_options can recover the
  // variant as index % n_variants without seeing the job list.
  const int n_variants =
      std::max(1, static_cast<int>(spec.option_variants.size()));
  const bool has_variants = !spec.option_variants.empty();
  std::vector<ExperimentJob> jobs;
  jobs.reserve(spec.cases.size() *
               std::max<std::size_t>(1, spec.scenarios.size()) *
               static_cast<std::size_t>(n_variants));
  const auto push_cell = [&](const std::string& name,
                             const scenario::ScenarioSpec* scen) {
    for (int v = 0; v < n_variants; ++v) {
      ExperimentJob job;
      job.case_name = name;
      if (scen) job.scenario = *scen;
      job.index = static_cast<int>(jobs.size());
      if (has_variants) job.option_index = v;
      jobs.push_back(std::move(job));
    }
  };
  for (const auto& name : spec.cases) {
    if (spec.scenarios.empty()) {
      push_cell(name, nullptr);
      continue;
    }
    for (const auto& scen : spec.scenarios) push_cell(name, &scen);
  }
  return jobs;
}

ExperimentResult Engine::run(const ExperimentSpec& spec,
                             const JobCallback& on_job) const {
  util::Timer timer;
  const solver::LpCounters lp0 = solver::lp_counters();
  ExperimentResult out;

  const std::vector<ExperimentJob> jobs = expand(spec);
  out.jobs.resize(jobs.size());

  const int workers =
      std::max(1, std::min<int>(util::resolve_workers(spec.workers),
                                static_cast<int>(jobs.size())));
  CallbackStream stream(on_job);

  // Pin every job before any runs: a cell's first job builds its instance
  // and its last job frees it (engine/job_runner.h).
  JobRunner runner(*registry_, workers);
  std::vector<JobRunner::Pin> pins;
  pins.reserve(jobs.size());
  for (const ExperimentJob& job : jobs) pins.push_back(runner.pin(job));

  // Slot-determinism (util/parallel.h): each job's result lands in its grid
  // slot and depends only on (registry content, spec, index) — scheduling
  // changes wall clock and callback order, never content.  out.jobs and
  // pins are slot stores: sized before the pool starts, each slot written
  // by exactly one worker, read by others only after the parallel_chunks
  // join — no mutex, by design (annotating them GUARDED_BY would claim a
  // lock that deliberately does not exist; TSan checks this handoff
  // instead).
  util::parallel_chunks(
      jobs.size(), workers, [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t i = begin; i < end; ++i) {
          runner.run(JobRunner::derive(spec, jobs[i], &out.jobs[i]),
                     &out.jobs[i]);
          pins[i].reset();
          if (stream) stream.emit(out.jobs[i]);
        }
      });
  out.case_builds = static_cast<int>(runner.builds());

  for (const auto& j : out.jobs) {
    out.trace += j.pipeline.trace;
    out.stages += j.pipeline.stages;
  }
  // Thread-inclusive counters (lp.h): per-job deltas are exact, and this
  // experiment-level snapshot is too — the pool joined above, flushing
  // every worker's counts.
  out.stages.set_lp_delta(lp0, solver::lp_counters());

  if (spec.run_generalizer) out.trends = mine_trends(spec, out.summary().jobs);

  out.wall_seconds = timer.seconds();
  XPLAIN_INFO << "engine: " << jobs.size() << " jobs ("
              << spec.cases.size() << " cases x "
              << std::max<std::size_t>(1, spec.scenarios.size())
              << " scenarios), " << out.total_subspaces() << " subspaces, "
              << out.trends.predicates.size() << " trends, " << workers
              << " workers, " << out.wall_seconds << "s";
  return out;
}

}  // namespace xplain
