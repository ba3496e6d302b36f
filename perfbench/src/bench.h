// Shared declarations of the perfbench binary: run arguments, the report a
// workload fills, and small measurement helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

/// Worker threads every in-process workload pins (Engine workers, fuzzer
/// workers).  The driving thread is worker 0, so threads stay <= 4.
inline constexpr int kWorkers = 4;
/// xplaind pool size: three workers plus the one client connection.
inline constexpr int kDaemonWorkers = 3;
/// Set-up is repeated this often per run and reported as the median.
inline constexpr int kSetupReps = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs: every code path, a fraction of the work.
  bool smoke = false;
  std::string xplaind;   // daemon binary (service_mix)
  std::string work_dir;  // scratch files: spans, cache journals, logs
};

/// What one run prints: the metrics of its mode (end-to-end untraced,
/// per-layer traced), notes printed beside them, and output checks.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Printed with the metrics but not part of the final JSON object.
  void note(const std::string& name, double value, const std::string& unit);
  void text(const std::string& name, const std::string& value);
  void check(const std::string& name, bool ok, const std::string& detail = {});

  long attempted = 0;
  long failed = 0;

  bool all_ok() const;
  /// The human-readable lines, then the one-line JSON result.
  void print() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::pair<std::string, Value>> notes_;
  std::vector<std::pair<std::string, std::string>> texts_;
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Check> checks_;
};

/// Seconds on a monotonic clock.
double now_s();
/// User plus system CPU seconds of this process so far.
double cpu_s();
/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// FNV-1a, printed as 16 hex digits.
std::string digest(const std::string& text);

/// The run's ExperimentSummary with wall times and solver counters zeroed
/// and registry keys mapped back to the case names: the digest covers the
/// results only, so a traced and an untraced pass of the same inputs (or a
/// pure speed change) digest identically.
std::string scrubbed_json(xplain::ExperimentSummary s);
/// One job, scrubbed the same way.
std::string scrubbed_job_json(xplain::JobSummary j);

struct LayerTotals;  // tracer.h

/// Per-layer values the spans cannot give, filled by each workload; what a
/// workload does not exercise stays 0.
struct LayerExtras {
  double trace_overhead_frac = 0.0;
  /// Validated subspaces; unknown on fuzz_probe (run_fuzzer returns no
  /// per-job results), where validated/rejected/valid_frac read 0.
  bool validated_known = false;
  long validated = 0;
  long observations = 0;
  long predicates = 0;
  double worker_idle_frac = 0.0;
  long engine_case_builds = 0;
  // server (service_mix)
  long cache_hits = 0;
  long cache_misses = 0;
  long cache_inflight_waits = 0;
  long cache_evictions = 0;
  long server_case_builds = 0;
  double journal_bytes = 0.0;
  bool has_server = false;
  double accept_s_p50 = 0.0;
  double queue_wait_s_p50 = 0.0;
  double queue_wait_s_p90 = 0.0;
  double compute_s_p50 = 0.0;
  double hit_latency_s_p50 = 0.0;
  // search (fuzz_probe)
  long evals = 0;
  long generations = 0;
  long offers = 0;
  long accepted = 0;
  long coverage_buckets = 0;
  long discoveries = 0;
};

/// Emits every per-layer metric (the JSON set) plus the layer times that
/// only some workloads have (printed as notes), and the reconciliation
/// identity the spans must satisfy.
void emit_layers(Report& report, const LayerTotals& t, const LayerExtras& x);

void run_grid(const Args& args, Report& report);
void run_fuzz(const Args& args, Report& report);
void run_service(const Args& args, Report& report);

}  // namespace perfbench
