#include "server/service.h"

#include <algorithm>
#include <future>
#include <optional>
#include <utility>

#include "util/json.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace xplain::server {

namespace {

CacheOptions cache_options(const ServiceOptions& o) {
  CacheOptions c;
  c.max_bytes = o.cache_max_bytes;
  c.journal_path = o.cache_path;
  return c;
}

std::string cache_key(const ExperimentJob& job, const JobResult& jr) {
  return ResultCache::key(
      job.case_name, job.scenario ? job.scenario->cache_key() : std::string(),
      jr.options_fingerprint, jr.seed);
}

/// Whether a hit would serve `s` back unchanged: util::Json writes a
/// non-finite double as null, which decodes as 0 (and NaN never compares
/// equal), so such a summary must not be published.
bool survives_cache(const JobSummary& s) {
  const std::optional<util::Json> v =
      util::Json::parse(s.to_json_value().dump(0));
  const std::optional<JobSummary> back =
      v ? JobSummary::from_json_value(*v) : std::nullopt;
  return back && *back == s;
}

/// What on_done reports: the jobs in grid order, their summed LP work (each
/// job's thread-inclusive delta was measured on the worker that ran it),
/// and trends mined like Engine::run does.
ExperimentSummary summarize(const ExperimentSpec& spec,
                            std::vector<JobSummary> jobs, double wall) {
  ExperimentSummary out;
  out.jobs = std::move(jobs);
  out.wall_seconds = wall;
  for (const JobSummary& j : out.jobs) static_cast<LpWork&>(out) += j;
  if (spec.run_generalizer) {
    const generalize::GeneralizerResult g = mine_trends(spec, out.jobs);
    out.trends = make_trend_summaries(g);
    out.observations = static_cast<int>(g.observations.size());
  }
  return out;
}

}  // namespace

Service::Service(const ServiceOptions& opts, CaseRegistry& reg)
    : pool_size_(std::max(1, util::resolve_workers(opts.workers))),
      runner_(reg, pool_size_),
      queue_(opts.queue_capacity),
      cache_(cache_options(opts)) {
  // The workers start last: by the time one can run, every other member is
  // constructed.  Each exits once the queue is closed and drained.
  workers_.reserve(pool_size_);
  try {
    for (int w = 0; w < pool_size_; ++w)
      workers_.emplace_back([this] {
        QueuedJob q;
        while (queue_.pop(&q)) run_job(q);
      });
  } catch (...) {
    // A thread that failed to start: join the ones that did before the
    // members they use unwind.
    queue_.close();
    for (std::thread& t : workers_) t.join();
    throw;
  }
  XPLAIN_INFO << "service: " << pool_size_ << " resident workers, queue "
              << queue_.capacity();
}

Service::~Service() { shutdown(); }

std::uint64_t Service::submit(const ExperimentSpec& spec, JobCallback on_job,
                              DoneCallback on_done) {
  auto sub = std::make_shared<Submission>();
  sub->spec = spec;
  sub->jobs = Engine().expand(spec);  // the grid alone: no case lookups
  sub->on_job = std::move(on_job);
  sub->on_done = std::move(on_done);
  const int n = static_cast<int>(sub->jobs.size());
  std::vector<std::string> keys;
  keys.reserve(n);
  for (const ExperimentJob& job : sub->jobs) {
    JobResult jr;
    JobRunner::derive(spec, job, &jr);
    keys.push_back(cache_key(job, jr));
  }
  {
    util::MutexLock lock(&sub->mu);
    sub->results.resize(n);
    sub->delivered.assign(n, 0);
    sub->remaining = n;
    sub->pins.reserve(n);
    for (const ExperimentJob& job : sub->jobs)
      sub->pins.push_back(runner_.pin(job));
  }
  mu_.lock();
  // Hits and riders never wait for queue space: this bound is what keeps a
  // client that pipelines duplicates from growing memory without limit.
  while (accepting_ && pending_jobs_ > 0 &&
         pending_jobs_ + n > kMaxPendingJobs)
    pending_cv_.wait(mu_);
  if (!accepting_) {
    mu_.unlock();
    return kRejected;
  }
  sub->id = next_id_++;
  // Registered before any lookup: a job that rides a claim is delivered by
  // the claimant's worker, which finds the submission by id.
  if (n > 0) submissions_[sub->id] = sub;
  // Counted under the same lock as the accept check: once drain() sees
  // accepting_ == false, every accepted job is already in pending_jobs_.
  pending_jobs_ += n;
  ++stats_.submissions;
  stats_.jobs_submitted += n;
  mu_.unlock();
  if (n == 0) {
    if (sub->on_done) sub->on_done(summarize(spec, {}, sub->timer.seconds()));
    return sub->id;
  }
  // The front door: every job's cache fate is decided here, in grid order,
  // before any job is queued — so no worker can publish (and evict) while
  // this submission is still looking up, and claims resolve in submission
  // order.
  std::vector<int> claimed;
  for (int i = 0; i < n; ++i) {
    JobSummary s;
    switch (cache_.lookup_or_claim(keys[i], {sub->id, i}, &s)) {
      case ResultCache::Outcome::kHit:
        // Grid position is submission-local, not content — everything else
        // in the cached summary is identical by the key's construction.
        s.index = i;
        deliver(*sub, i, s, /*from_cache=*/true);
        break;
      case ResultCache::Outcome::kRiding:
        break;  // the claimant's worker delivers this job
      case ResultCache::Outcome::kClaimed:
        claimed.push_back(i);
        break;
    }
  }
  for (const int i : claimed) {
    if (queue_.push({sub->id, i})) continue;
    // Unreachable in the sanctioned lifecycle (shutdown() drains before
    // closing the queue, and drain waits for these very jobs) — but a lost
    // job must never strand its submission or its claim, so fail it loudly
    // instead.
    JobResult jr;
    JobRunner::derive(sub->spec, sub->jobs[i], &jr);
    jr.error = "service shut down before the job could be enqueued";
    resolve(*sub, i, keys[i], make_job_summary(jr), /*publish=*/false);
  }
  return sub->id;
}

ExperimentSummary Service::run(const ExperimentSpec& spec,
                               JobCallback on_job) {
  // Shared with the callback: the promise must outlive set_value() on the
  // delivering thread, which may still be inside it when get() returns.
  auto done = std::make_shared<std::promise<ExperimentSummary>>();
  std::future<ExperimentSummary> summary = done->get_future();
  if (submit(spec, std::move(on_job),
             [done](const ExperimentSummary& s) { done->set_value(s); }) ==
      kRejected)
    return {};
  return summary.get();
}

void Service::drain() {
  mu_.lock();
  accepting_ = false;
  pending_cv_.notify_all();  // a submit() waiting for room is rejected
  while (pending_jobs_ > 0) pending_cv_.wait(mu_);
  mu_.unlock();
}

void Service::shutdown() {
  // Sequentially idempotent: drain re-checks pending (0), close is a no-op
  // and no worker is left to join the second time, compaction rewrites an
  // already-compact journal in place.
  drain();
  queue_.close();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // With every worker joined the cache is quiescent: rewrite the journal
  // to exactly the resident entries (drops tombstones and superseded
  // lines) so the next startup replays a minimal file.
  cache_.compact();
}

ServiceStats Service::stats() const {
  ServiceStats s;
  {
    util::MutexLock lock(&mu_);
    s = stats_;
  }
  s.case_builds = runner_.builds();
  const ResultCache::Stats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.cache_inflight_waits = cs.inflight_waits;
  s.cache_evictions = cs.evictions;
  s.cache_replayed = cs.replayed;
  s.cache_entries = cs.entries;
  s.cache_bytes = cs.bytes;
  return s;
}

std::shared_ptr<Service::Submission> Service::submission(
    std::uint64_t id) const {
  util::MutexLock lock(&mu_);
  auto it = submissions_.find(id);
  return it == submissions_.end() ? nullptr : it->second;
}

void Service::run_job(const QueuedJob& q) {
  // Only claimed jobs are queued, and a submission stays registered until
  // its last delivery: the lookup cannot fail.
  const std::shared_ptr<Submission> sub = submission(q.submission);
  const ExperimentJob& job = sub->jobs[q.index];
  JobResult jr;
  PipelineOptions o = JobRunner::derive(sub->spec, job, &jr);
  const std::string key = cache_key(job, jr);
  runner_.run(std::move(o), &jr);  // catches everything the job throws
  const JobSummary s = make_job_summary(jr);
  // Failures are not cached, nor is a summary a hit would not reproduce.
  resolve(*sub, q.index, key, s, jr.ok && survives_cache(s));
}

void Service::resolve(Submission& sub, int index, const std::string& key,
                      JobSummary s, bool publish) {
  // Publish, then deliver: once a submission's last job is delivered, its
  // results are already in the cache.  Each rider gets the claimant's
  // summary under its own index: after fulfill that is what a hit serves,
  // after abandon the claimant's own result.
  const std::vector<QueuedJob> riders =
      publish ? cache_.fulfill(key, s) : cache_.abandon(key);
  deliver(sub, index, s, /*from_cache=*/false);
  for (const QueuedJob& r : riders) {
    s.index = r.index;
    deliver(*submission(r.submission), r.index, s, /*from_cache=*/publish);
  }
}

void Service::deliver(Submission& sub, int index, const JobSummary& s,
                      bool from_cache) {
  bool dup = false;
  bool last = false;
  std::vector<JobSummary> jobs;  // the submission's, once this is its last
  double wall = 0.0;
  {
    util::MutexLock lock(&sub.mu);
    if (sub.delivered[index]) {
      dup = true;
    } else {
      sub.delivered[index] = 1;
      // Dropped before `remaining` can reach 0: once on_done runs, no
      // finished job holds an instance.
      sub.pins[index].reset();
      sub.results[index] = s;
      if (sub.on_job) sub.on_job(s, from_cache);
      if (--sub.remaining == 0) {
        last = true;
        jobs = std::move(sub.results);
        wall = sub.timer.seconds();
      }
    }
  }
  {
    util::MutexLock lock(&mu_);
    if (dup) {
      ++stats_.duplicate_deliveries;
      return;
    }
    ++stats_.jobs_completed;
    if (!s.ok) ++stats_.jobs_failed;
    if (!last) {
      --pending_jobs_;
      pending_cv_.notify_all();
      return;
    }
    submissions_.erase(sub.id);
  }
  // The counters already cover the last job (on_done may read them), and
  // it stays pending until on_done returns, so drain() orders after it.
  if (sub.on_done) sub.on_done(summarize(sub.spec, std::move(jobs), wall));
  util::MutexLock lock(&mu_);
  --pending_jobs_;
  pending_cv_.notify_all();
}

}  // namespace xplain::server
