#include "server/worker_pool.h"

#include <algorithm>
#include <utility>

namespace xplain::server {

WorkerPool::WorkerPool(JobQueue* queue, int workers, std::size_t batch_size,
                       JobFn fn)
    : queue_(queue),
      batch_size_(std::max<std::size_t>(1, batch_size)),
      fn_(std::move(fn)) {
  const int n = std::max(1, workers);
  threads_.reserve(n);
  for (int w = 0; w < n; ++w) threads_.emplace_back([this, w] { run(w); });
}

WorkerPool::~WorkerPool() { join(); }

void WorkerPool::join() {
  if (joined_) return;
  for (auto& t : threads_) t.join();
  joined_ = true;
}

void WorkerPool::run(int worker) {
  // The rxloop: one reusable batch buffer per worker, refilled until the
  // queue reports closed-and-drained.
  std::vector<QueuedJob> batch;
  batch.reserve(batch_size_);
  while (queue_->pop_batch(&batch, batch_size_) > 0)
    for (const QueuedJob& job : batch) fn_(job, worker);
}

}  // namespace xplain::server
