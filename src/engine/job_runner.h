// xplain::JobRunner — the one job path.  Engine::run and the resident
// Service run every grid job through it: derive the job's options (its
// seed and options fingerprint are stamped before anything runs, so failed
// jobs carry them too), validate its options, resolve its case, size its
// explain and significance pools, and run run_pipeline under one
// catch-all.
//
// Instance memo: a scenario job's instance is keyed by its cell,
// (case name, scenario.cache_key()).  Callers pin every job they accept
// and drop the pin when the job is done.  The cell's first job builds the
// instance (concurrent jobs wait for that build; one that throws reopens
// the cell for the next job) and its last pin frees it.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "engine/engine.h"
#include "util/thread_annotations.h"
#include "xplain/case.h"

namespace xplain {

class JobRunner {
  struct Cell {  // every field guarded by mu_ (reached through cells_)
    int pins = 0;
    bool building = false;
    bool built = false;
    std::shared_ptr<const HeuristicCase> instance;  // nullptr: declined
  };
  using CellMap = std::map<std::pair<std::string, std::string>, Cell>;
  struct Unpin {
    JobRunner* runner = nullptr;
    CellMap::iterator cell;
    void operator()(Cell*) const { runner->unpin(cell); }
  };

 public:
  /// Keeps one scenario cell's instance alive (empty for default-instance
  /// jobs); the cell's last pin frees it.  Must not outlive the runner.
  using Pin = std::unique_ptr<Cell, Unpin>;

  /// `concurrency`: how many jobs the caller runs at once.  Above 1, an
  /// "auto" explain or significance pool (a non-positive explain.workers or
  /// subspace.significance.workers) runs single-threaded: the caller
  /// already fans out across jobs.
  JobRunner(CaseRegistry& reg, int concurrency)
      : registry_(&reg), concurrency_(concurrency) {}

  /// Pins the job's scenario cell (without building it).
  Pin pin(const ExperimentJob& job) XPLAIN_EXCLUDES(mu_);

  /// The job's options; writes its result shell (job, seed, options
  /// fingerprint; ok == false) to *result.
  static PipelineOptions derive(const ExperimentSpec& spec,
                                const ExperimentJob& job, JobResult* result);

  /// Runs a derived job: fills result->pipeline and ok, or result->error
  /// (which names the knob when opts.validate() fails).  Never throws.
  void run(PipelineOptions opts, JobResult* result) XPLAIN_EXCLUDES(mu_);

  /// Scenario instance builds attempted so far (declined and thrown ones
  /// included).
  long builds() const XPLAIN_EXCLUDES(mu_);

 private:
  std::shared_ptr<const HeuristicCase> instance(const ExperimentJob& job)
      XPLAIN_EXCLUDES(mu_);
  void unpin(CellMap::iterator cell) XPLAIN_EXCLUDES(mu_);

  CaseRegistry* const registry_;
  const int concurrency_;

  mutable util::Mutex mu_;
  std::condition_variable_any built_cv_;  // a cell's build finished or threw
  CellMap cells_ XPLAIN_GUARDED_BY(mu_);
  long builds_ XPLAIN_GUARDED_BY(mu_) = 0;
};

}  // namespace xplain
