// Workload inputs, each a pure function of the run seed: the same seed
// gives the same grids, fuzz campaigns and request stream.
//
// A run is a sequence of passes; pass k draws its inputs from
// pass_seed(seed, k), so one run averages over several input draws while
// two runs with the same seed see the same sequence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "search/fuzzer.h"

namespace perfbench {

std::uint64_t pass_seed(std::uint64_t seed, int pass);

/// lp_explain: demand_pinning_chain over the §5.4 chain family, then WCMP on
/// fat_tree k4 and Waxman draws; full pipeline at trimmed budgets.
std::vector<xplain::ExperimentSpec> lp_grids(std::uint64_t seed, bool smoke);
/// vbp_explain: first_fit/best_fit x sizes 4-8 x instance seeds, default
/// pipeline options (zero LP solves).
std::vector<xplain::ExperimentSpec> vbp_grids(std::uint64_t seed, bool smoke);
/// fuzz_probe: one probe-mode campaign over {wcmp, demand_pinning}.
xplain::search::FuzzerOptions fuzz_campaign(std::uint64_t seed, bool smoke);

/// service_mix: one submission of the request stream.
struct Request {
  std::string kind;  // vbp | nogap | chain | dup | repeat
  xplain::ExperimentSpec spec;
};

/// The seeded request stream: requests drawn from a fixed catalog (cheap
/// VBP grids, no-gap WCMP grids, trimmed chain jobs), with fixed shares of
/// exact repeats of recent requests (cache reads) and of in-flight
/// duplicates (one grid naming the same job several times, so later copies
/// wait on the first).
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, bool smoke);
  Request next();

 private:
  std::uint64_t seed_;
  bool smoke_;
  std::uint64_t counter_ = 0;
  std::vector<std::string> block_;  // kinds still to draw in this block
  std::vector<xplain::ExperimentSpec> recent_;
};

/// The xplaind "submit" request line for `spec` (no trailing newline).
std::string submit_line(const xplain::ExperimentSpec& spec, long id);

}  // namespace perfbench
