#include "workloads.h"

#include <iterator>

#include "bench.h"
#include "scenario/spec_json.h"
#include "util/json.h"
#include "util/random.h"

namespace perfbench {

namespace {

using xplain::ExperimentSpec;
using xplain::PipelineOptions;
using xplain::scenario::ScenarioSpec;
using xplain::scenario::TopologyKind;
using xplain::util::Json;
using xplain::util::Rng;

ScenarioSpec spec_of(TopologyKind kind, int size, std::uint64_t seed,
                     double capacity = 100.0) {
  ScenarioSpec s;
  s.kind = kind;
  s.size = size;
  s.seed = seed;
  s.capacity = capacity;
  return s;
}

/// Every worker count the pipeline reads, pinned: the hardware-thread
/// default must never change the load.
void pin_workers(PipelineOptions& o) {
  o.explain.workers = 1;
  o.subspace.significance.workers = 1;
}

/// Trimmed full-pipeline budgets (Type 1 + 2; Type 3 via the engine).
PipelineOptions trimmed(int max_subspaces, int explain_samples) {
  PipelineOptions o;
  o.min_gap = 1.0;
  o.subspace.max_subspaces = max_subspaces;
  o.subspace.max_expansion_rounds = 8;
  o.subspace.dkw_eps = 0.15;
  o.subspace.tree_samples = 120;
  o.subspace.significance.pairs = 40;
  o.explain.samples = explain_samples;
  pin_workers(o);
  return o;
}

}  // namespace

std::uint64_t pass_seed(std::uint64_t seed, int pass) {
  return Rng::derive_seed(seed, static_cast<std::uint64_t>(pass) + 1);
}

std::vector<ExperimentSpec> lp_grids(std::uint64_t seed, bool smoke) {
  Rng rng(seed);
  // The §5.4 family: chain length x detour capacity (the chain case reads
  // size as the chain length and capacity as the detour capacity).  Type-3
  // mines features common to every observation, so the chain family is a
  // grid of its own.
  ExperimentSpec chain;
  chain.cases = {"demand_pinning_chain"};
  // Longest chains first: the costliest jobs start early and the pass does
  // not end waiting on one straggler.
  for (int len = smoke ? 3 : 5; len >= 2; --len)
    for (double cap : {35.0, 50.0, 65.0})
      chain.scenarios.push_back(spec_of(TopologyKind::kLine, len, 1, cap));
  chain.options = trimmed(/*max_subspaces=*/2, smoke ? 20 : 60);
  chain.seed = seed;
  chain.workers = kWorkers;
  chain.grammar.p_threshold = 0.1;

  ExperimentSpec wcmp = chain;
  wcmp.cases = {"wcmp"};
  wcmp.scenarios = {spec_of(TopologyKind::kFatTree, 4, 1)};
  const int waxman = smoke ? 1 : 7;
  for (int i = 0; i < waxman; ++i)
    wcmp.scenarios.push_back(spec_of(
        TopologyKind::kWaxman, 6,
        static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20))));
  return {chain, wcmp};
}

std::vector<ExperimentSpec> vbp_grids(std::uint64_t seed, bool smoke) {
  Rng rng(seed);
  ExperimentSpec spec;
  spec.cases = {"first_fit", "best_fit"};
  const int replicas = smoke ? 1 : 6;
  std::vector<std::uint64_t> inst_seeds;
  for (int r = 0; r < replicas; ++r)
    inst_seeds.push_back(static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20)));
  // Largest instances first, so the pass ends on short jobs.
  for (int size = smoke ? 5 : 8; size >= 4; --size)
    for (std::uint64_t inst_seed : inst_seeds)
      spec.scenarios.push_back(spec_of(TopologyKind::kLine, size, inst_seed));
  pin_workers(spec.options);
  if (smoke) spec.options.explain.samples = 200;
  spec.seed = seed;
  spec.workers = kWorkers;
  return {spec};
}

xplain::search::FuzzerOptions fuzz_campaign(std::uint64_t seed, bool smoke) {
  xplain::search::FuzzerOptions o;
  o.cases = {"wcmp", "demand_pinning"};
  o.seed = seed;
  o.budget_evals = smoke ? 12 : 32;
  o.workers = kWorkers;
  o.deep = false;
  // Mutants stay near the starter corpus's size, so a campaign's cost
  // depends little on where the seed happens to steer it.
  o.limits.max_fat_tree_k = 4;
  o.limits.max_size = 10;
  // The fuzzer's starter corpus, stated here so setup can build it.
  o.seed_corpus = {spec_of(TopologyKind::kFatTree, 4, 1),
                   spec_of(TopologyKind::kWaxman, 12, 7),
                   spec_of(TopologyKind::kLine, 6, 1),
                   spec_of(TopologyKind::kStar, 8, 1)};
  pin_workers(o.probe_options);
  pin_workers(o.deep_options);
  return o;
}

RequestStream::RequestStream(std::uint64_t seed, bool smoke)
    : seed_(seed), smoke_(smoke) {}

Request RequestStream::next() {
  // The stream comes in blocks of kBlock requests with a fixed mix of kinds
  // in seeded order, so every stretch of the stream has the same shares.
  static constexpr const char* kBlockKinds[] = {
      "repeat", "repeat", "repeat", "repeat", "repeat", "repeat",
      "vbp",    "vbp",    "vbp",    "vbp",    "vbp",    "vbp",
      "nogap",  "nogap",  "nogap",  "nogap",  "chain",  "chain",
      "dup",    "dup"};
  constexpr int kBlock = sizeof(kBlockKinds) / sizeof(kBlockKinds[0]);
  if (block_.empty()) {
    block_.assign(std::begin(kBlockKinds), std::end(kBlockKinds));
    Rng(Rng::derive_seed(seed_, 0x5EED0000ull + counter_ / kBlock))
        .shuffle(block_);
  }
  Rng rng(Rng::derive_seed(seed_, ++counter_));
  Request r;
  r.kind = block_.back();
  block_.pop_back();
  // Exact repeats of a recent request: every job is a cache read (or a
  // re-miss when the LRU bound evicted it).
  if (r.kind == "repeat") {
    if (!recent_.empty()) {
      r.spec = recent_[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(recent_.size()) - 1))];
      return r;
    }
    r.kind = "vbp";  // nothing to repeat yet
  }
  ExperimentSpec& s = r.spec;
  s.seed = rng.engine()();
  s.run_generalizer = false;
  if (r.kind == "vbp") {
    s.cases = {rng.bernoulli(0.5) ? "first_fit" : "best_fit"};
    const int n = rng.uniform_int(1, 3);
    for (int i = 0; i < n; ++i)
      s.scenarios.push_back(
          spec_of(TopologyKind::kLine, rng.uniform_int(4, 6), 1));
    s.options = trimmed(2, smoke_ ? 20 : 100);
  } else if (r.kind == "nogap") {
    s.cases = {"wcmp"};
    const int n = rng.uniform_int(1, 2);
    for (int i = 0; i < n; ++i)
      s.scenarios.push_back(spec_of(TopologyKind::kLine,
                                    rng.uniform_int(3, 5),
                                    static_cast<std::uint64_t>(
                                        rng.uniform_int(1, 8))));
    s.options = trimmed(1, 20);
  } else if (r.kind == "chain") {
    s.cases = {"demand_pinning_chain"};
    s.scenarios.push_back(spec_of(TopologyKind::kLine, rng.uniform_int(2, 3), 1,
                                  rng.bernoulli(0.5) ? 35.0 : 50.0));
    s.options = trimmed(1, smoke_ ? 10 : 40);
  } else {
    // In-flight duplicates: per-job reseeding off, so the grid names two
    // jobs three times each.  A worker dequeues up to four jobs at once, so
    // the copies land on two workers and the later lookup waits on the
    // earlier computation.
    s.cases = {"demand_pinning_chain"};
    const ScenarioSpec a = spec_of(TopologyKind::kLine, 2, 1,
                                   rng.bernoulli(0.5) ? 35.0 : 65.0);
    const ScenarioSpec b = spec_of(TopologyKind::kLine, 3, 1,
                                   rng.bernoulli(0.5) ? 35.0 : 65.0);
    s.scenarios = {a, b, a, b, a, b};
    s.reseed_jobs = false;
    s.options = trimmed(1, smoke_ ? 10 : 40);
    s.options = xplain::apply_seed_salt(s.options, rng.engine()());
  }
  recent_.push_back(s);
  if (recent_.size() > 12) recent_.erase(recent_.begin());
  return r;
}

std::string submit_line(const ExperimentSpec& spec, long id) {
  const PipelineOptions& o = spec.options;
  Json sig = Json::object();
  sig.set("pairs", o.subspace.significance.pairs);
  sig.set("p_threshold", o.subspace.significance.p_threshold);
  sig.set("seed", std::to_string(o.subspace.significance.seed));
  sig.set("workers", o.subspace.significance.workers);
  Json sub = Json::object();
  sub.set("max_subspaces", o.subspace.max_subspaces);
  sub.set("max_expansion_rounds", o.subspace.max_expansion_rounds);
  sub.set("dkw_eps", o.subspace.dkw_eps);
  sub.set("tree_samples", o.subspace.tree_samples);
  sub.set("seed", std::to_string(o.subspace.seed));
  sub.set("significance", std::move(sig));
  Json ex = Json::object();
  ex.set("samples", o.explain.samples);
  ex.set("seed", std::to_string(o.explain.seed));
  ex.set("workers", o.explain.workers);
  Json opts = Json::object();
  opts.set("min_gap", o.min_gap);
  opts.set("seed_salt", std::to_string(o.seed_salt));
  opts.set("subspace", std::move(sub));
  opts.set("explain", std::move(ex));

  Json cases = Json::array();
  for (const auto& c : spec.cases) cases.push(c);
  Json scens = Json::array();
  for (const auto& sc : spec.scenarios)
    scens.push(xplain::scenario::spec_to_json(sc));
  Json js = Json::object();
  js.set("cases", std::move(cases));
  js.set("scenarios", std::move(scens));
  js.set("seed", std::to_string(spec.seed));
  js.set("reseed_jobs", spec.reseed_jobs);
  js.set("run_generalizer", spec.run_generalizer);
  js.set("options", std::move(opts));

  Json req = Json::object();
  req.set("op", "submit");
  req.set("id", id);
  req.set("spec", std::move(js));
  return req.dump(0);
}

}  // namespace perfbench
