// perfbench: the repo benchmark binary.  run.py builds it and
// calls it as
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] --xplaind PATH --work-dir DIR
//
// It prints one line per metric, note, digest and check, then the result
// as a single JSON line; it exits 1 when any check fails and 2 on a usage
// error.  See README.md for the workloads and metrics.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload lp_explain|vbp_explain|"
               "service_mix|fuzz_probe --seed N --seconds S --trace 0|1 "
               "[--smoke] --xplaind PATH --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(arg + " needs a value");
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") a.workload = v;
      else if (arg == "--seed") a.seed = std::stoull(v);
      else if (arg == "--seconds") a.seconds = std::stod(v);
      else if (arg == "--trace") a.trace = std::stoi(v) != 0;
      else if (arg == "--xplaind") a.xplaind = v;
      else if (arg == "--work-dir") a.work_dir = v;
      else return usage("unknown flag " + arg);
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + v);
    }
  }
  if (a.work_dir.empty()) return usage("--work-dir is required");

  // Any worker count a layer leaves at "auto" resolves to the pinned size,
  // never to the machine's hardware threads.
  setenv("XPLAIN_WORKERS", std::to_string(perfbench::kWorkers).c_str(), 1);
  std::signal(SIGPIPE, SIG_IGN);  // a dead daemon must not kill the client

  perfbench::Report report;
  if (a.workload == "lp_explain" || a.workload == "vbp_explain")
    perfbench::run_grid(a, report);
  else if (a.workload == "fuzz_probe")
    perfbench::run_fuzz(a, report);
  else if (a.workload == "service_mix")
    perfbench::run_service(a, report);
  else
    return usage("unknown workload \"" + a.workload + "\"");

  std::cout << "# perfbench " << a.workload << " seed " << a.seed
            << (a.trace ? " traced" : " untraced") << (a.smoke ? " smoke" : "")
            << "\n";
  report.print();
  return report.all_ok() ? 0 : 1;
}
