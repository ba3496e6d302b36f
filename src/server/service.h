// xplain::server::Service — the resident explanation service's front door.
//
// The paper's pipeline explains one study per process; the ROADMAP
// north-star serves a query STREAM.  Service keeps the Engine's job path
// resident: submit() expands an ExperimentSpec grid into jobs (the same
// Engine::expand order) and decides each job's result-cache fate on the
// submitting thread, and the service's resident worker threads each pop
// one queued job at a time and run it through the same JobRunner
// (engine/job_runner.h) Engine::run uses — so every job's content is the
// same pure function of (spec, index) that Engine::run computes, bitwise
// identical for any pool size and unaffected by concurrent unrelated jobs
// (the thread-inclusive solver::lp_counters keep each job's LP tallies
// exact).  submit() pins each job's scenario cell in the runner's instance
// memo and delivery drops the pin.
//
// The front door: results dedup through the content-addressed
// ResultCache, keyed on (case, scenario.cache_key(), options fingerprint,
// seed).  submit() looks up every job of the grid, in grid order, before
// it queues any: a job already computed is a hit, delivered at once on the
// submitting thread — bitwise identical JSON, zero LP work, no wait behind
// queued computes; a duplicate of an in-flight job rides that claim and
// the claimant's worker delivers it; only the jobs that claim their key
// are queued.  A worker runs its claim, publishes the result (fulfill or
// abandon), and only then delivers its job and the claim's riders.  Since
// every claim is made at submit, in submission order, a cached copy always
// copies a claim of an earlier submission or of its own.
//
// Completion: two optional callbacks per submission.  on_job fires as each
// job finishes (serialized per submission; completion ORDER depends on
// scheduling, job CONTENT does not).  It receives the JobSummary — the
// serializable digest — rather than the full JobResult: a cache hit has no
// PipelineResult to resurrect, and the summary is exactly what the service
// can promise to reproduce bit for bit.  on_done fires once, with the
// submission's ExperimentSummary, on the thread that delivered its last
// job.  Both may run on the submitting thread before submit() returns (a
// hit is delivered there).  on_job runs under the submission's lock;
// on_done runs outside every lock and may call stats(); neither may call
// submit(), drain() or shutdown().
//
// Lifecycle: the worker threads start when the constructor finishes, after
// every other member exists.  drain() stops intake and blocks until every
// accepted job has finished and its submission's on_done has returned
// (workers stay up); shutdown() drains, closes the queue, and joins the
// workers.  The destructor shuts down.  Submissions after drain are
// rejected (submit returns kRejected).
//
// LP accounting caveat (solver/lp.h): the workers are hand-rolled threads,
// so their thread-local solver tallies reach the process-wide retired
// totals only when they EXIT (shutdown()).  Per-job deltas measured inside
// a job are still exact; process-level deltas across a service are exact
// only after shutdown.
//
// Hardening: the JobRunner runs the case build and pipeline under a
// catch-all, so a throwing build or pipeline fails its job loudly, and the
// claim is abandoned and its riders still delivered — nothing is stranded
// on a key.  A summary the cache's JSON round-trip would not reproduce (a
// non-finite value, which util::Json writes as null) is abandoned rather
// than published, so a cached answer always equals the computed one.
// Hits and riders never wait for queue space, so submit() also waits while
// kMaxPendingJobs accepted jobs are unfinished.  ServiceOptions::
// cache_max_bytes bounds resident cache memory (LRU by bytes) and
// cache_path persists it across restarts; see server/result_cache.h for
// the policy details.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/job_runner.h"
#include "server/job_queue.h"
#include "server/result_cache.h"
#include "util/thread_annotations.h"
#include "util/timer.h"
#include "xplain/case.h"

namespace xplain::server {

struct ServiceOptions {
  /// Worker threads; <= 0 resolves via util::resolve_workers (one per
  /// hardware thread unless XPLAIN_WORKERS overrides).
  int workers = 0;
  /// Job-queue bound (backpressure: submit blocks when full).
  std::size_t queue_capacity = 256;
  /// Result-cache high-water mark in summed JSON bytes; fulfills past it
  /// evict least-recently-served entries.  0 = unbounded (the pre-eviction
  /// behavior).
  std::size_t cache_max_bytes = 0;
  /// Result-cache journal replayed at startup and compacted on shutdown;
  /// "" = in-memory only.  A restarted service serves the prior working
  /// set byte-for-byte from this file with zero new LP solves.
  std::string cache_path;
};

struct ServiceStats {
  long submissions = 0;
  long jobs_submitted = 0;
  long jobs_completed = 0;
  long jobs_failed = 0;  // completed with ok = false (subset of completed)
  /// A slot delivered twice would indicate a scheduling bug; the drain
  /// test asserts this stays 0.
  long duplicate_deliveries = 0;
  long cache_hits = 0;
  long cache_misses = 0;
  /// Jobs that found their key in flight and rode that claim: the
  /// claimant's worker delivered them.
  long cache_inflight_waits = 0;
  /// Ready entries evicted by the cache_max_bytes LRU policy.
  long cache_evictions = 0;
  /// Ready entries replayed from cache_path at startup.
  long cache_replayed = 0;
  std::size_t cache_entries = 0;
  /// Summed JSON bytes of the resident ready entries (the quantity
  /// cache_max_bytes bounds).
  std::size_t cache_bytes = 0;
  /// Scenario instances this service constructed: one per
  /// (case, scenario.cache_key()) cell per pinned span, so a later
  /// submission that misses the result cache builds it again.
  long case_builds = 0;
};

class Service {
 public:
  /// Fires per finished job, serialized per submission.  `from_cache` is
  /// true when the summary was served without running the pipeline.
  using JobCallback = std::function<void(const JobSummary&, bool from_cache)>;
  /// Fires once per submission, when its last job is delivered: jobs in
  /// grid order, their summed LP work, and trends mined like Engine::run.
  using DoneCallback = std::function<void(const ExperimentSummary&)>;

  explicit Service(const ServiceOptions& opts = {},
                   CaseRegistry& reg = registry());
  ~Service();  // shutdown()

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// submit() result when the service is draining / shut down.
  static constexpr std::uint64_t kRejected = 0;

  /// Accepted jobs that may be unfinished at once.  A submission that
  /// would pass it waits in submit() until deliveries make room (one larger
  /// than the bound is admitted once nothing is pending).
  static constexpr long kMaxPendingJobs = 4096;

  /// Accepts the spec's full grid and returns its handle, or kRejected
  /// after drain()/shutdown().  Hits are delivered before it returns;
  /// claimed jobs are queued.  Blocks only for queue backpressure and the
  /// kMaxPendingJobs bound.  The spec's `workers` field is ignored (the
  /// pool is the service's); everything else — including reseed_jobs,
  /// run_generalizer, grammar — behaves exactly as in Engine::run.
  std::uint64_t submit(const ExperimentSpec& spec, JobCallback on_job = {},
                       DoneCallback on_done = {}) XPLAIN_EXCLUDES(mu_);

  /// submit(), then blocks until its on_done delivers the summary (an
  /// empty one when rejected).
  ExperimentSummary run(const ExperimentSpec& spec, JobCallback on_job = {});

  /// Stops intake and blocks until all accepted jobs finished.  Workers
  /// stay resident (more submissions are still rejected).
  void drain() XPLAIN_EXCLUDES(mu_);

  /// drain() + close the queue + join the workers.  Idempotent; call it
  /// from one thread (the owner's), like the destructor.
  void shutdown() XPLAIN_EXCLUDES(mu_);

  ServiceStats stats() const XPLAIN_EXCLUDES(mu_);

  int pool_size() const { return pool_size_; }

 private:
  struct Submission {
    // Immutable after submit() registers the entry.
    std::uint64_t id = 0;
    ExperimentSpec spec;
    std::vector<ExperimentJob> jobs;
    JobCallback on_job;
    DoneCallback on_done;
    util::Timer timer;

    util::Mutex mu;
    std::vector<JobSummary> results XPLAIN_GUARDED_BY(mu);
    std::vector<char> delivered XPLAIN_GUARDED_BY(mu);
    /// Each job's instance-memo pin, dropped when the job is delivered.
    std::vector<JobRunner::Pin> pins XPLAIN_GUARDED_BY(mu);
    int remaining XPLAIN_GUARDED_BY(mu) = 0;
  };

  /// The registered submission `id`; registered from submit() until its
  /// last job is delivered.
  std::shared_ptr<Submission> submission(std::uint64_t id) const
      XPLAIN_EXCLUDES(mu_);
  void run_job(const QueuedJob& q);
  /// Publishes (fulfill) or releases (abandon) the claim job `index` holds
  /// on `key`, then delivers the job and every rider of the claim.
  void resolve(Submission& sub, int index, const std::string& key,
               JobSummary s, bool publish);
  void deliver(Submission& sub, int index, const JobSummary& s,
               bool from_cache) XPLAIN_EXCLUDES(mu_);

  const int pool_size_;
  JobRunner runner_;  // outlives every Submission's pins
  JobQueue queue_;
  ResultCache cache_;

  mutable util::Mutex mu_;
  /// pending_jobs_ fell, or intake closed.
  std::condition_variable_any pending_cv_;
  bool accepting_ XPLAIN_GUARDED_BY(mu_) = true;
  std::uint64_t next_id_ XPLAIN_GUARDED_BY(mu_) = 1;
  std::map<std::uint64_t, std::shared_ptr<Submission>> submissions_
      XPLAIN_GUARDED_BY(mu_);
  long pending_jobs_ XPLAIN_GUARDED_BY(mu_) = 0;
  /// The submission and delivery counters; stats() fills in the cache and
  /// case-build fields from their owners.
  ServiceStats stats_ XPLAIN_GUARDED_BY(mu_);

  /// Declared after every member they use.  Started at the end of the
  /// constructor, joined by shutdown(); touched only by the owner's thread.
  std::vector<std::thread> workers_;
};

}  // namespace xplain::server
