// The traced run's instrumentation, built entirely from outside src/: a
// decorator case registered under a prefixed registry key wraps each real
// case and times the calls the pipeline makes into it.
//
//   make_evaluator                 opens a job span (one per pipeline run)
//   GapEvaluator::gap              counted and timed, attributed to the stage
//                                  open in that job: inside find_adversarial
//                                  -> analyzer, after the job's first oracle
//                                  call -> explain, otherwise -> subspace
//   HeuristicAnalyzer::find_adversarial   one span per call
//   FlowOracle calls               counted and timed (explain stage)
//   the case factory               one "case.build" span per construction
//
// A job's evaluator, analyzer and oracle share one JobTrace, so attribution
// is by object, not by thread, and stays exact with several Engine workers.
// The job span closes when the last of the three is destroyed, i.e. when
// run_pipeline returns.  Leaf calls (gap, oracle) are aggregated into one
// child span per parent (first start, last end, call count, summed busy
// time) so the span file stays small.  Every span carries its
// solver::lp_counters() delta.  Spans live in memory until take().
#pragma once

#include <string>
#include <vector>

#include "solver/lp.h"
#include "util/thread_annotations.h"

namespace perfbench {

struct Span {
  std::string name;   // pass, job, stage.subspace, stage.explain, analyzer,
                      // gap, oracle, case.build, generalize
  std::string label;  // case@scenario for jobs and builds
  int id = -1;
  int parent = -1;
  int job = -1;
  double start = 0.0;
  double end = 0.0;
  long calls = 1;      // leaf calls folded into this span
  double busy = 0.0;   // summed leaf time (== end - start for non-leaf spans)
  long found = 0;      // analyzer: examples returned; oracle: accepted samples
  long lp_solves = 0;
  long lp_pivots = 0;
  long lp_warm = 0;
  long lp_priced = 0;

  double seconds() const { return end - start; }
};

class Tracer {
 public:
  /// The process-wide tracer (the registry factories reach it).
  static Tracer& instance();

  /// Registry key the decorator for `case_name` is registered under.
  static std::string key(const std::string& case_name);
  /// Strips key() back to the case name in any text.
  static std::string unkey(std::string text);

  /// Registers a decorator for each case (idempotent).
  void register_cases(const std::vector<std::string>& case_names);

  /// A top-level span; jobs and builds that start while it is open become
  /// its children.  Close it with end().
  int begin_pass(const std::string& name) XPLAIN_EXCLUDES(mu_);
  /// A span the benchmark times around its own call (e.g. generalize_batch).
  int begin(const std::string& name, int parent) XPLAIN_EXCLUDES(mu_);
  void end(int id) XPLAIN_EXCLUDES(mu_);

  /// Internal: id allocation and span hand-in for the decorators.
  int next_id() XPLAIN_EXCLUDES(mu_);
  int current_pass() const XPLAIN_EXCLUDES(mu_);
  void add(std::vector<Span> spans) XPLAIN_EXCLUDES(mu_);

  /// Spans recorded since the last take(), in id order.
  std::vector<Span> take() XPLAIN_EXCLUDES(mu_);

 private:
  mutable xplain::util::Mutex mu_;
  std::vector<Span> spans_ XPLAIN_GUARDED_BY(mu_);
  std::vector<Span> open_ XPLAIN_GUARDED_BY(mu_);
  int next_id_ XPLAIN_GUARDED_BY(mu_) = 0;
  int pass_ XPLAIN_GUARDED_BY(mu_) = -1;
};

/// Writes spans as a JSON array (one object per span).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// Layer totals over the spans of one traced pass.
struct LayerTotals {
  std::vector<double> job_seconds;
  double job_busy = 0.0;  // summed job spans
  long builds = 0;
  double build_s = 0.0;
  long gap_calls = 0;
  double gap_busy = 0.0;
  long gap_solves = 0;
  long analyzer_calls = 0;
  long analyzer_found = 0;
  double analyzer_busy = 0.0;
  long analyzer_gap_calls = 0;
  double subspace_self = 0.0;
  long subspace_gap_calls = 0;
  double explain_busy = 0.0;
  long explain_gap_calls = 0;
  long oracle_calls = 0;
  long oracle_accepted = 0;
  double oracle_busy = 0.0;
  double generalize_busy = 0.0;
  /// Solver work over the pass spans (exact: the pass thread joins every
  /// pool it spawns).
  long lp_solves = 0;
  long lp_pivots = 0;
  long lp_warm = 0;
  long lp_priced = 0;
};

LayerTotals summarize(const std::vector<Span>& spans);

/// Leaf calls seen on a thread other than their job's, process-wide.
long foreign_thread_calls();

/// solver::lp_counters() difference b - a.
xplain::solver::LpCounters lp_delta(const xplain::solver::LpCounters& a,
                                    const xplain::solver::LpCounters& b);

}  // namespace perfbench
