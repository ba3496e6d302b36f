#include "server/service.h"

#include <algorithm>
#include <utility>

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

std::uint64_t Service::submit(const ExperimentSpec& spec, JobCallback on_job) {
  auto sub = std::make_shared<Submission>();
  sub->spec = spec;
  sub->jobs = Engine().expand(spec);  // the grid alone: no case lookups
  sub->on_job = std::move(on_job);
  const int n = static_cast<int>(sub->jobs.size());
  {
    util::MutexLock lock(&sub->mu);
    sub->results.resize(n);
    sub->delivered.assign(n, 0);
    sub->remaining = n;
    sub->pins.reserve(n);
    for (const ExperimentJob& job : sub->jobs)
      sub->pins.push_back(runner_.pin(job));
  }
  {
    util::MutexLock lock(&mu_);
    if (!accepting_) return kRejected;
    sub->id = next_id_++;
    submissions_[sub->id] = sub;
    // Counted under the same lock as the accept check: once drain() sees
    // accepting_ == false, every accepted job is already in pending_jobs_.
    pending_jobs_ += n;
    ++stats_.submissions;
    stats_.jobs_submitted += n;
  }
  for (int i = 0; i < n; ++i) {
    if (queue_.push({sub->id, i})) continue;
    // Unreachable in the sanctioned lifecycle (shutdown() drains before
    // closing the queue, and drain waits for these very jobs) — but a lost
    // job must never strand wait(), so fail it loudly instead.
    JobResult jr;
    JobRunner::derive(sub->spec, sub->jobs[i], &jr);
    jr.error = "service shut down before the job could be enqueued";
    deliver(*sub, i, make_job_summary(jr), /*from_cache=*/false);
  }
  return sub->id;
}

ExperimentSummary Service::wait(std::uint64_t id) {
  std::shared_ptr<Submission> sub;
  {
    util::MutexLock lock(&mu_);
    auto it = submissions_.find(id);
    if (it == submissions_.end()) return {};
    sub = it->second;
  }
  ExperimentSummary out;
  sub->mu.lock();
  while (sub->remaining > 0) sub->done_cv.wait(sub->mu);
  out.jobs = sub->results;
  out.wall_seconds = sub->wall_seconds;
  sub->mu.unlock();
  {
    util::MutexLock lock(&mu_);
    submissions_.erase(id);
  }
  // Thread-inclusive per-job LP tallies sum to the submission's exact total
  // (each job's delta was measured on the worker that ran it).
  for (const JobSummary& j : out.jobs) static_cast<LpWork&>(out) += j;
  if (sub->spec.run_generalizer) {
    const generalize::GeneralizerResult g = mine_trends(sub->spec, out.jobs);
    out.trends = make_trend_summaries(g);
    out.observations = static_cast<int>(g.observations.size());
  }
  return out;
}

ExperimentSummary Service::run(const ExperimentSpec& spec,
                               JobCallback on_job) {
  const std::uint64_t id = submit(spec, std::move(on_job));
  if (id == kRejected) return {};
  return wait(id);
}

void Service::drain() {
  mu_.lock();
  accepting_ = false;
  while (pending_jobs_ > 0) idle_cv_.wait(mu_);
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
  // wait() erases a submission only after its last delivery, and a rider
  // is undelivered until its claimant delivers it: the lookup cannot fail.
  const std::shared_ptr<Submission> sub = submission(q.submission);
  const ExperimentJob& job = sub->jobs[q.index];
  JobResult jr;
  PipelineOptions o = JobRunner::derive(sub->spec, job, &jr);
  const std::string key = ResultCache::key(
      job.case_name, job.scenario ? job.scenario->cache_key() : std::string(),
      jr.options_fingerprint, jr.seed);

  JobSummary s;
  switch (cache_.lookup_or_claim(key, q, &s)) {
    case ResultCache::Outcome::kHit:
      // Grid position is submission-local, not content — everything else
      // in the cached summary is identical by the key's construction.
      s.index = q.index;
      deliver(*sub, q.index, s, /*from_cache=*/true);
      return;
    case ResultCache::Outcome::kRiding:
      return;  // the claimant's worker delivers this job
    case ResultCache::Outcome::kClaimed:
      break;
  }
  runner_.run(std::move(o), &jr);  // catches everything the job throws
  s = make_job_summary(jr);
  // Failures are not cached.  Each rider gets the claimant's summary under
  // its own index: after fulfill that is what a hit serves (the cache's
  // JSON round-trip is exact for finite values), after abandon the
  // claimant's failure.
  const std::vector<QueuedJob> riders =
      jr.ok ? cache_.fulfill(key, s) : cache_.abandon(key);
  deliver(*sub, q.index, s, /*from_cache=*/false);
  for (const QueuedJob& r : riders) {
    s.index = r.index;
    deliver(*submission(r.submission), r.index, s, /*from_cache=*/jr.ok);
  }
}

void Service::deliver(Submission& sub, int index, const JobSummary& s,
                      bool from_cache) {
  bool dup = false;
  bool done = false;
  {
    util::MutexLock lock(&sub.mu);
    if (sub.delivered[index]) {
      dup = true;
    } else {
      sub.delivered[index] = 1;
      // Dropped before `remaining` can reach 0: once wait() returns, no
      // finished job holds an instance.
      sub.pins[index].reset();
      sub.results[index] = s;
      --sub.remaining;
      if (sub.on_job) sub.on_job(s, from_cache);
      if (sub.remaining == 0) {
        sub.wall_seconds = sub.timer.seconds();
        done = true;
      }
    }
  }
  {
    util::MutexLock lock(&mu_);
    if (dup) {
      ++stats_.duplicate_deliveries;
    } else {
      ++stats_.jobs_completed;
      if (!s.ok) ++stats_.jobs_failed;
      if (--pending_jobs_ == 0) idle_cv_.notify_all();
    }
  }
  // Wake the waiter last, so a wait() that returns sees the service
  // counters already covering this delivery.
  if (done) sub.done_cv.notify_all();
}

}  // namespace xplain::server
