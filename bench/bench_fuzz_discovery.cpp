// Fuzzer discovery acceptance bench: a fixed-seed, fixed-budget
// coverage-guided search (src/search/fuzzer.h) over scenario space must
// surface a spread of significant-gap regions no hand-picked corpus entry
// covers — the ISSUE acceptance criterion:
//
//   * >= 8 distinct significant-gap coverage buckets,
//   * spanning >= 2 case studies,
//   * including >= 1 failure-dimension scenario (failed_links > 0 or
//     capacity_degradation < 1 — the production what-if axis),
//   * and the archive is BITWISE identical when the same budget runs on 1
//     and on 4 workers (the util/parallel.h determinism contract carried
//     through mutation, probing, and coverage acceptance).
//
// The discovery counters (archive size, buckets, cases, failure specs,
// evals) are pure functions of (seed, budget, code version), so
// tools/bench_compare.py gates them EXACTLY against the committed
// baseline; wall time is scrubbed.  The archive itself is committed as
// bench/corpus/discovered.json (generated by tools/xplain_fuzz with this
// same seed/budget) and replayed entry-by-entry in test_search.
#include <iostream>
#include <set>
#include <string>

#include "bench_json.h"
#include "search/fuzzer.h"
#include "util/table.h"
#include "util/timer.h"

using namespace xplain;
using namespace xplain::search;

namespace {

constexpr std::uint64_t kSeed = 2024;
constexpr int kBudgetEvals = 60;

FuzzerOptions bench_options(int workers) {
  FuzzerOptions opts;
  opts.seed = kSeed;
  opts.budget_evals = kBudgetEvals;
  opts.workers = workers;
  return opts;
}

bool is_failure_spec(const scenario::ScenarioSpec& s) {
  return s.failed_links > 0 || s.capacity_degradation != 1.0;
}

}  // namespace

int main() {
  tools::BenchReport bench_report("bench_fuzz_discovery");
  std::cout << "Coverage-guided scenario fuzzing: seed " << kSeed
            << ", budget " << kBudgetEvals << " evals\n\n";

  util::Timer fuzz_timer;
  const FuzzResult res = run_fuzzer(bench_options(/*workers=*/1));
  const double fuzz_seconds = fuzz_timer.seconds();

  // The determinism gate: identical budget on 4 workers must produce the
  // byte-identical archive (same discoveries, same incumbents, same JSON).
  const FuzzResult wide = run_fuzzer(bench_options(/*workers=*/4));
  const bool replay_identical_workers =
      res.archive.to_json() == wide.archive.to_json();

  std::set<std::string> cases, buckets;
  int failure_specs = 0;
  util::Table t({"case", "scenario", "norm_gap", "gen"});
  for (const Discovery& d : res.archive.discoveries()) {
    cases.insert(d.case_name);
    buckets.insert(d.bucket);
    failure_specs += is_failure_spec(d.spec);
    t.add_row({d.case_name, d.spec.display_name(),
               util::format_double(d.norm_gap), std::to_string(d.generation)});
  }
  t.print(std::cout);

  const FuzzStats& st = res.stats;
  std::cout << "\n" << st.evals << " evals over " << st.generations
            << " generations in " << fuzz_seconds << "s; coverage "
            << st.coverage.buckets << " buckets ("
            << st.coverage.significant_buckets << " significant); archive "
            << res.archive.size() << " discoveries across " << cases.size()
            << " cases, " << failure_specs
            << " failure-dimension specs; 1-vs-4-worker archives "
            << (replay_identical_workers ? "bitwise identical" : "DIVERGED")
            << "\n";

  // Every discovery count is a pure function of (seed, budget, code).
  bench_report.count("fuzz_evals", st.evals);
  bench_report.metric("fuzz_generations", st.generations);
  bench_report.metric("fuzz_seconds", fuzz_seconds);
  bench_report.count("discovered_specs",
                     static_cast<long>(res.archive.size()));
  bench_report.count("discovered_buckets", static_cast<long>(buckets.size()));
  bench_report.count("discovered_cases", static_cast<long>(cases.size()));
  bench_report.count("discovered_failure_specs", failure_specs);
  bench_report.count("discovered_coverage_buckets", st.coverage.buckets);
  bench_report.count("replay_identical_workers",
                     replay_identical_workers ? 1 : 0);

  const bool ok = replay_identical_workers &&
                  static_cast<int>(buckets.size()) >= 8 && cases.size() >= 2 &&
                  failure_specs >= 1;
  std::cout << "\nAcceptance: >= 8 significant-gap buckets across >= 2 case "
               "studies incl. >= 1 failure-dimension scenario, archive "
               "bitwise identical on 1 and 4 workers.\n"
            << (ok ? "[REPRODUCED]" : "[MISMATCH]") << "\n";
  return ok ? 0 : 1;
}
