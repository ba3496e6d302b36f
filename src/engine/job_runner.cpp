#include "engine/job_runner.h"

#include <exception>

namespace xplain {

JobRunner::Pin JobRunner::pin(const ExperimentJob& job) {
  if (!job.scenario) return {};
  util::MutexLock lock(&mu_);
  auto it =
      cells_.try_emplace({job.case_name, job.scenario->cache_key()}).first;
  ++it->second.pins;
  return Pin(&it->second, Unpin{this, it});
}

void JobRunner::unpin(CellMap::iterator cell) {
  // Declared before the lock: the instance is destroyed after unlocking.
  std::shared_ptr<const HeuristicCase> retired;
  util::MutexLock lock(&mu_);
  if (--cell->second.pins > 0) return;
  retired = std::move(cell->second.instance);
  cells_.erase(cell);
}

PipelineOptions JobRunner::derive(const ExperimentSpec& spec,
                                  const ExperimentJob& job,
                                  JobResult* result) {
  result->job = job;
  PipelineOptions o = derived_job_options(spec, job.index, &result->seed);
  result->options_fingerprint = o.fingerprint();
  return o;
}

std::shared_ptr<const HeuristicCase> JobRunner::instance(
    const ExperimentJob& job) {
  if (!job.scenario) return registry_->find(job.case_name);
  const Pin held = pin(job);  // keeps the cell while this call uses it
  Cell& cell = *held;
  mu_.lock();
  while (cell.building) built_cv_.wait(mu_);
  if (!cell.built) {
    cell.building = true;
    ++builds_;
    mu_.unlock();
    std::shared_ptr<const HeuristicCase> built;
    try {
      built = registry_->create(job.case_name, *job.scenario);
    } catch (...) {
      // Unwind guard: reopen the cell so a waiter retries the build
      // instead of waiting forever.
      mu_.lock();
      cell.building = false;
      mu_.unlock();
      built_cv_.notify_all();
      throw;
    }
    mu_.lock();
    cell.instance = std::move(built);
    cell.building = false;
    cell.built = true;
    built_cv_.notify_all();
  }
  std::shared_ptr<const HeuristicCase> c = cell.instance;
  mu_.unlock();
  return c;
}

void JobRunner::run(PipelineOptions opts, JobResult* result) {
  // Out-of-range options fail the job before anything is built or run.
  result->error = opts.validate();
  if (!result->error.empty()) return;
  try {
    const std::shared_ptr<const HeuristicCase> c = instance(result->job);
    if (!c) {
      result->error = registry_->contains(result->job.case_name)
                          ? "case cannot build from a scenario "
                            "(default-only registration)"
                          : "unknown case";
      return;
    }
    if (concurrency_ > 1) {
      if (opts.explain.workers <= 0) opts.explain.workers = 1;
      if (opts.subspace.significance.workers <= 0)
        opts.subspace.significance.workers = 1;
    }
    result->pipeline = run_pipeline(*c, opts);
    result->ok = true;
  } catch (const std::exception& e) {
    result->error = std::string("job threw: ") + e.what();
  } catch (...) {
    result->error = "job threw a non-standard exception";
  }
}

long JobRunner::builds() const {
  util::MutexLock lock(&mu_);
  return builds_;
}

}  // namespace xplain
