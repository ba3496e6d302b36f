// Persistent worker pool for the resident explanation service.
//
// Unlike util::parallel_chunks (scoped fork/join over a known index range),
// these workers are resident: they spawn once at Service construction,
// loop on JobQueue::pop_batch (the rxloop idiom — one lock acquisition per
// BATCH, a reusable per-worker buffer, no per-job thread spawn), and exit
// only when the queue is closed and drained.
//
// Determinism: the pool adds nothing to job content.  Each job's result is
// a pure function of (submission spec, grid index) — the job function must
// uphold that (Service::run_job does, via derived_job_options) — so which
// worker runs a job, and in which batch, changes wall clock and completion
// order only.  Per-worker state (the batch buffer) is indexed by worker
// slot, never by thread id.
//
// LP accounting caveat (solver/lp.h): these are hand-rolled threads, so
// their thread-local solver tallies reach the process-wide retired totals
// only when the workers EXIT (WorkerPool::join).  Per-job deltas measured
// inside a job are still exact; process-level deltas across a service are
// exact only after shutdown.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "server/job_queue.h"

namespace xplain::server {

class WorkerPool {
 public:
  /// Runs one job; `worker` is this worker's slot in [0, size()).
  using JobFn = std::function<void(const QueuedJob&, int worker)>;

  /// Spawns `workers` resident threads immediately.  `queue` and `fn` must
  /// outlive the pool.
  WorkerPool(JobQueue* queue, int workers, std::size_t batch_size, JobFn fn);
  ~WorkerPool();  // joins (close the queue first or this blocks forever)

  /// Blocks until every worker has exited (requires queue->close() to have
  /// been called, or to be called by another thread).  Single-caller;
  /// idempotent from that caller.
  void join();

  int size() const { return static_cast<int>(threads_.size()); }

 private:
  void run(int worker);

  JobQueue* queue_;
  const std::size_t batch_size_;
  JobFn fn_;
  std::vector<std::thread> threads_;
  bool joined_ = false;
};

}  // namespace xplain::server
