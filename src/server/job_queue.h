// Bounded MPSC job queue for the resident explanation service (xplaind).
//
// A fixed-capacity ring of small POD descriptors: producers block when it
// is full (backpressure, not unbounded growth) and each of the service's
// worker threads takes one job per pop().  The descriptors are
// (submission id, grid index) pairs: the queue never owns job payloads,
// so enqueue/dequeue is a few word copies.  One job per dequeue is the
// right grain here: a job runs for 10 ms and more, so the lock is noise,
// and a worker that took several jobs at once would run them back to back
// while its peers idled.
//
// Ordering: FIFO.  Determinism does not depend on it (every job's content
// is a pure function of its submission's spec + index; see
// derived_job_options in engine/engine.h), but FIFO keeps latency fair
// across submissions.
//
// Shutdown: close() wakes everyone; producers then fail fast (push returns
// false) while consumers continue to drain whatever is buffered — pop
// returns false only when the queue is closed AND empty, which is each
// worker's signal to exit.  The service drains *pending work* before
// closing (Service::drain), so a graceful shutdown loses nothing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_annotations.h"

namespace xplain::server {

/// One unit of queued work: which submission, which cell of its grid.
struct QueuedJob {
  std::uint64_t submission = 0;
  int index = 0;
};

class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity);

  /// Blocks while the ring is full; false once the queue is closed (the
  /// job was NOT enqueued).
  bool push(const QueuedJob& job) XPLAIN_EXCLUDES(mu_);

  /// Dequeues the oldest job into `*out`, blocking while the queue is open
  /// and empty.  False means closed-and-drained — the consumer should exit.
  bool pop(QueuedJob* out) XPLAIN_EXCLUDES(mu_);

  /// Stops intake and wakes all blocked producers/consumers.  Idempotent.
  void close() XPLAIN_EXCLUDES(mu_);

  bool closed() const XPLAIN_EXCLUDES(mu_);
  std::size_t size() const XPLAIN_EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;

  mutable util::Mutex mu_;
  /// condition_variable_any: the std:: condvar only accepts a raw
  /// std::mutex, which xplain_lint bans (invisible to -Wthread-safety);
  /// util::Mutex is BasicLockable, which the _any variant works with.
  std::condition_variable_any not_empty_;
  std::condition_variable_any not_full_;
  /// Fixed ring storage: ring_[(head_ + i) % capacity_] for i < count_.
  std::vector<QueuedJob> ring_ XPLAIN_GUARDED_BY(mu_);
  std::size_t head_ XPLAIN_GUARDED_BY(mu_) = 0;
  std::size_t count_ XPLAIN_GUARDED_BY(mu_) = 0;
  bool closed_ XPLAIN_GUARDED_BY(mu_) = false;
};

}  // namespace xplain::server
