#include "server/job_queue.h"

#include <algorithm>

namespace xplain::server {

JobQueue::JobQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  // Storage is allocated once here and never resized: the ring IS the
  // bound.  (Explicit lock()/unlock() rather than MutexLock throughout
  // this file because condition_variable_any::wait needs the lockable
  // itself; clang's analysis tracks the explicit acquire/release fine.)
  ring_.resize(capacity_);
}

bool JobQueue::push(const QueuedJob& job) {
  mu_.lock();
  while (count_ == capacity_ && !closed_) not_full_.wait(mu_);
  if (closed_) {
    mu_.unlock();
    return false;
  }
  ring_[(head_ + count_) % capacity_] = job;
  ++count_;
  mu_.unlock();
  not_empty_.notify_one();
  return true;
}

bool JobQueue::pop(QueuedJob* out) {
  mu_.lock();
  while (count_ == 0 && !closed_) not_empty_.wait(mu_);
  if (count_ == 0) {
    mu_.unlock();
    return false;
  }
  *out = ring_[head_];
  head_ = (head_ + 1) % capacity_;
  --count_;
  mu_.unlock();
  not_full_.notify_one();  // one slot freed: one producer can use it
  return true;
}

void JobQueue::close() {
  mu_.lock();
  closed_ = true;
  mu_.unlock();
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool JobQueue::closed() const {
  util::MutexLock lock(&mu_);
  return closed_;
}

std::size_t JobQueue::size() const {
  util::MutexLock lock(&mu_);
  return count_;
}

}  // namespace xplain::server
