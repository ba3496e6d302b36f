// xplain_fuzz — budgeted coverage-guided search over scenario space.
//
//   xplain_fuzz [--budget-evals N] [--seed S] [--deep] [--case NAME]...
//               [--generation-size N] [--min-norm-gap X] [--workers N]
//               [--out FILE] [--merge]
//
// Runs the fuzzer (src/search/fuzzer.h) and prints the discovery archive;
// --out writes it as JSON (the committed regression corpus
// bench/corpus/discovered.json is produced exactly this way), --merge
// loads an existing archive from --out first so repeated runs accumulate
// (per-bucket incumbents keep the larger normalized gap).  --deep confirms
// every survivor with a full-pipeline run before archiving — the mode to
// use when promoting specs into the committed corpus with full Type-1/2
// output behind them.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "search/fuzzer.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/table.h"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--budget-evals N] [--seed S] [--deep] [--case NAME]...\n"
         "       [--generation-size N] [--min-norm-gap X] [--workers N]\n"
         "       [--out FILE] [--merge]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xplain::search::FuzzerOptions opts;
  std::vector<std::string> cases;
  std::string out_path;
  bool merge = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--budget-evals") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.budget_evals = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      const std::optional<std::uint64_t> seed =
          v ? xplain::util::parse_u64(v) : std::nullopt;
      if (!seed) return usage(argv[0]);
      opts.seed = *seed;
    } else if (arg == "--deep") {
      opts.deep = true;
    } else if (arg == "--case") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cases.push_back(v);
    } else if (arg == "--generation-size") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.generation_size = std::atoi(v);
    } else if (arg == "--min-norm-gap") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.significant_gap = std::atof(v);
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opts.workers = std::atoi(v);
    } else if (arg == "--out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      out_path = v;
    } else if (arg == "--merge") {
      merge = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage(argv[0]);
    }
  }
  if (!cases.empty()) opts.cases = std::move(cases);

  xplain::search::FuzzResult result = xplain::search::run_fuzzer(opts);

  if (merge && !out_path.empty()) {
    std::string err;
    if (const auto existing = xplain::search::Archive::load(out_path, &err)) {
      for (const auto& d : existing->discoveries()) result.archive.add(d);
    } else {
      std::cerr << "merge: " << err << " (writing fresh archive)\n";
    }
  }

  xplain::util::Table table(
      {"case", "scenario", "norm_gap", "gap", "gen", "bucket"});
  for (const auto& d : result.archive.discoveries()) {
    // Buckets are long; the tail (after the case prefix) is the useful part.
    std::string bucket = d.bucket;
    if (bucket.size() > 48) bucket = "..." + bucket.substr(bucket.size() - 45);
    table.add_row({d.case_name, d.spec.display_name(),
                   xplain::util::format_double(d.norm_gap),
                   xplain::util::format_double(d.gap),
                   std::to_string(d.generation), bucket});
  }
  table.print(std::cout);

  const auto& st = result.stats;
  std::cout << "\nfuzz: " << st.evals << " evals over " << st.generations
            << " generations (" << st.deep_runs << " deep runs, "
            << st.failed_jobs << " failed jobs)\n"
            << "coverage: " << st.coverage.buckets << " buckets, "
            << st.coverage.significant_buckets << " significant, "
            << st.coverage.accepted_novel << " novel + "
            << st.coverage.accepted_improved << " improved accepts of "
            << st.coverage.offers << " offers\n"
            << "archive: " << result.archive.size() << " discoveries\n";

  if (!out_path.empty()) {
    if (!result.archive.save(out_path)) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
