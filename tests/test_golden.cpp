// Golden results: every registered case runs small Engine grids whose
// ExperimentSummary JSON is pinned in tests/golden/<case>.json, so a change
// that moves any summarized result — a job's subspace and significant
// counts, its gaps, features, derived seed or options fingerprint, or a
// Type-3 trend — fails tier-1 and shows where.  The same runs also pin
// tests/golden/<case>.pipeline.json: per job, every subspace's seed, box,
// halfspaces, mean gaps, p-value and sample count, and every explanation's
// sample count and heat map — the results the summary leaves out.  The
// generation trace is not pinned: it is work accounting, not a result.
//
// Each case runs its default instance and one failure scenario
// (failed_links + capacity_degradation), both under a two-entry
// option_variants axis, at 1 and 4 workers.  The documents are compared
// under tools/bench_compare.py's cross-machine rule: keys ending in
// "seconds" and LP counters ("lp_"-prefixed) are dropped, and non-integral
// numbers are rounded to 9 significant digits (last-ULP libm differences
// across machines are noise, not behaviour); everything else must match
// exactly.
//
// A mismatch names the first differing JSON path and writes the fresh
// document to <case>.actual.json (or <case>.pipeline.actual.json) in the
// working directory.  Copying that file over the golden one is a behaviour
// change: say which file and why.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "util/json.h"

using namespace xplain;
using util::Json;

namespace {

const char* const kCases[] = {"first_fit", "best_fit", "demand_pinning",
                              "demand_pinning_chain", "wcmp"};

/// `stem` is the case name, or "<case>.pipeline" for the pipeline document.
std::string golden_path(const std::string& stem) {
  return std::string(XPLAIN_REPO_ROOT) + "/tests/golden/" + stem + ".json";
}

/// Trimmed budgets: one subspace from a coarse DKW slice, few tree samples,
/// significance pairs and explanation samples.
PipelineOptions trimmed() {
  PipelineOptions o;
  o.min_gap = 1.0;
  o.subspace.dkw_eps = 0.2;
  o.subspace.max_expansion_rounds = 6;
  o.subspace.tree_samples = 100;
  o.subspace.significance.pairs = 40;
  o.subspace.max_subspaces = 1;
  o.explain.samples = 40;
  return o;
}

/// The case's registry default instance, or a fat-tree(4) with two failed
/// links and a 0.75 brownout, under two option variants.
ExperimentSpec grid(const std::string& case_name, bool failure_scenario,
                    int workers) {
  ExperimentSpec spec;
  spec.cases = {case_name};
  if (failure_scenario) {
    scenario::ScenarioSpec s;
    s.kind = scenario::TopologyKind::kFatTree;
    s.size = 4;
    s.failed_links = 2;
    s.capacity_degradation = 0.75;
    spec.scenarios = {s};
  }
  PipelineOptions wider = trimmed();
  wider.subspace.max_subspaces = 2;
  wider.subspace.significance.p_threshold = 0.1;
  wider.explain.samples = 80;
  spec.option_variants = {trimmed(), wider};
  spec.seed = 17;
  spec.workers = workers;
  return spec;
}

bool dropped(const std::string& key) {
  const std::string suffix = "seconds";
  return key.rfind("lp_", 0) == 0 ||
         (key.size() >= suffix.size() &&
          key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0);
}

/// bench_compare.py's scrub.  Json prints integral numbers below 1e15 as
/// integers, which Python reads as ints and leaves unrounded.
Json scrub(const Json& v) {
  switch (v.kind()) {
    case Json::Kind::kObject: {
      Json out = Json::object();
      for (const auto& [key, member] : v.members())
        if (!dropped(key)) out.set(key, scrub(member));
      return out;
    }
    case Json::Kind::kArray: {
      Json out = Json::array();
      for (const Json& item : v.items()) out.push(scrub(item));
      return out;
    }
    case Json::Kind::kNumber: {
      const double x = v.as_num();
      if (!std::isfinite(x) || (std::fabs(x) < 1e15 && std::trunc(x) == x))
        return v;
      char buf[40];
      const auto printed = std::to_chars(buf, buf + sizeof(buf), x,
                                         std::chars_format::general, 9);
      double rounded = 0.0;
      std::from_chars(buf, printed.ptr, rounded);
      return Json(rounded);
    }
    default:
      return v;
  }
}

/// The first path at which the documents differ; nullopt when equal.
std::optional<std::string> first_difference(const Json& want, const Json& got,
                                            const std::string& path) {
  if (want.kind() != got.kind()) return path + " (kind)";
  switch (want.kind()) {
    case Json::Kind::kObject: {
      const auto& w = want.members();
      const auto& g = got.members();
      for (std::size_t i = 0; i < w.size() && i < g.size(); ++i) {
        if (w[i].first != g[i].first)
          return path + "." + w[i].first + " (key; got " + g[i].first + ")";
        if (auto d = first_difference(w[i].second, g[i].second,
                                      path + "." + w[i].first))
          return d;
      }
      if (w.size() != g.size()) return path + " (member count)";
      return std::nullopt;
    }
    case Json::Kind::kArray: {
      for (std::size_t i = 0; i < want.size() && i < got.size(); ++i)
        if (auto d = first_difference(want.at(i), got.at(i),
                                      path + "[" + std::to_string(i) + "]"))
          return d;
      if (want.size() != got.size()) return path + " (length)";
      return std::nullopt;
    }
    case Json::Kind::kNumber:
      if (want.as_num() == got.as_num()) return std::nullopt;
      return path + " (" + Json(want.as_num()).dump(0) + " vs " +
             Json(got.as_num()).dump(0) + ")";
    default:
      if (want.dump(0) == got.dump(0)) return std::nullopt;
      return path + " (" + want.dump(0) + " vs " + got.dump(0) + ")";
  }
}

Json numbers(const std::vector<double>& xs) {
  Json out = Json::array();
  for (double x : xs) out.push(x);
  return out;
}

Json subspace_json(const subspace::AdversarialSubspace& sub) {
  Json box = Json::object();
  box.set("lo", numbers(sub.region.box.lo));
  box.set("hi", numbers(sub.region.box.hi));
  Json halfspaces = Json::array();
  for (const subspace::Halfspace& h : sub.region.halfspaces) {
    Json half = Json::object();
    half.set("a", numbers(h.a));
    half.set("b", h.b);
    halfspaces.push(std::move(half));
  }
  Json out = Json::object();
  out.set("seed", numbers(sub.seed));
  out.set("seed_gap", sub.seed_gap);
  out.set("box", std::move(box));
  out.set("halfspaces", std::move(halfspaces));
  out.set("mean_gap_inside", sub.mean_gap_inside);
  out.set("mean_gap_outside", sub.mean_gap_outside);
  out.set("p_value", sub.p_value);
  out.set("samples_inside", sub.samples_inside);
  out.set("significant", sub.significant);
  return out;
}

/// Every job's Type-1 and Type-2 output, in grid order.
Json pipeline_json(const ExperimentResult& result) {
  Json jobs = Json::array();
  for (const JobResult& job : result.jobs) {
    Json subspaces = Json::array();
    for (const auto& sub : job.pipeline.subspaces)
      subspaces.push(subspace_json(sub));
    Json explanations = Json::array();
    for (const explain::Explanation& e : job.pipeline.explanations) {
      Json x = Json::object();
      x.set("samples_used", e.samples_used);
      x.set("heat_map", numbers(e.heat_map()));
      explanations.push(std::move(x));
    }
    Json out = Json::object();
    out.set("job", job.job.label());
    out.set("ok", job.ok);
    out.set("subspaces", std::move(subspaces));
    out.set("explanations", std::move(explanations));
    jobs.push(std::move(out));
  }
  return jobs;
}

/// The scrubbed summary and pipeline documents of one grid run.
struct Documents {
  Json summary;
  Json pipeline;
};

Documents run_scrubbed(const ExperimentSpec& spec) {
  const ExperimentResult result = Engine().run(spec);
  const std::optional<Json> summary = Json::parse(result.summary().to_json(0));
  return {summary ? scrub(*summary) : Json(), scrub(pipeline_json(result))};
}

std::optional<Json> read_golden(const std::string& stem) {
  std::ifstream in(golden_path(stem));
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

void expect_golden(const std::string& stem, const std::optional<Json>& want,
                   const Json& got, int workers) {
  std::optional<std::string> diff =
      want ? first_difference(*want, got, "$")
           : std::optional<std::string>("(no readable golden file)");
  if (!diff) return;
  const std::string actual = stem + ".actual.json";
  std::ofstream(actual) << got.dump(2) << "\n";
  ADD_FAILURE() << stem << " at " << workers << " workers differs from "
                << golden_path(stem) << " first at " << *diff
                << "; the fresh document is in " << actual;
}

class Golden : public ::testing::TestWithParam<const char*> {};

TEST_P(Golden, GridMatchesTheCommittedDocuments) {
  const std::string name = GetParam();
  const std::string pipeline_stem = name + ".pipeline";
  const std::optional<Json> want_summary = read_golden(name);
  const std::optional<Json> want_pipeline = read_golden(pipeline_stem);
  for (const int workers : {1, 4}) {
    const Documents base = run_scrubbed(grid(name, false, workers));
    const Documents failure = run_scrubbed(grid(name, true, workers));
    Json summary = Json::object();
    summary.set("default_instance", base.summary);
    summary.set("failure_scenario", failure.summary);
    expect_golden(name, want_summary, summary, workers);
    Json pipeline = Json::object();
    pipeline.set("default_instance", base.pipeline);
    pipeline.set("failure_scenario", failure.pipeline);
    expect_golden(pipeline_stem, want_pipeline, pipeline, workers);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, Golden, ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
