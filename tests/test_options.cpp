// The options list (xplain/pipeline.h: for_each_option) — the options leg
// of the result-cache key and the xplaind options schema:
//   * golden pins: the default and one derived job's fingerprint() equal
//     the literal strings the daemon has always written, and a journal
//     written before the list existed (tests/golden/pf1.journal) replays
//     through today's Service fully cached with zero LP solves;
//   * per row: perturbing the member changes the fingerprint exactly when
//     the row has a fingerprint key, reading {path: value} sets exactly that
//     member, and each range bound is admitted while the next value past it
//     is rejected naming the path;
//   * unknown keys and wrong JSON kinds are errors naming the path;
//   * a job with out-of-range options fails on Engine and Service before
//     anything is built, run or cached, still carrying its seed and
//     fingerprint;
//   * the options every committed caller sets are admitted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/engine.h"
#include "search/fuzzer.h"
#include "server/result_cache.h"
#include "server/service.h"
#include "solver/lp.h"
#include "util/json.h"
#include "xplain/pipeline.h"

using namespace xplain;
using util::Json;

namespace {

constexpr char kDefaultFingerprint[] =
    "pf1;mg=4607182418800017408;salt=0;s.bgf=4602678819172646912;"
    "s.dt=4603579539098121011;s.de=4591870180066957722;"
    "s.dd=4587366580439587226;s.ihw=4584304132692975288;"
    "s.sf=4590429028186199163;s.mer=12;s.t.md=5;s.t.msl=12;s.t.mt=32;"
    "s.ts=400;s.tif=4599976659396224614;s.sig.p=100;"
    "s.sig.pt=4587366580439587226;s.sig.sh=4600877379321698714;"
    "s.sig.seed=7;s.max=8;s.seed=2024;s.ki=0;e.n=3000;"
    "e.eps=4517329193108106637;e.seed=99;e.att=64";

/// derived_job_options({cases: {"wcmp"}, seed: 7}, 3).
constexpr char kDerivedFingerprint[] =
    "pf1;mg=4607182418800017408;salt=3467252261107883461;"
    "s.bgf=4602678819172646912;s.dt=4603579539098121011;"
    "s.de=4591870180066957722;s.dd=4587366580439587226;"
    "s.ihw=4584304132692975288;s.sf=4590429028186199163;s.mer=12;"
    "s.t.md=5;s.t.msl=12;s.t.mt=32;s.ts=400;"
    "s.tif=4599976659396224614;s.sig.p=100;"
    "s.sig.pt=4587366580439587226;s.sig.sh=4600877379321698714;"
    "s.sig.seed=3467252261107883468;s.max=8;"
    "s.seed=3467252261107885485;s.ki=0;e.n=3000;"
    "e.eps=4517329193108106637;e.seed=3467252261107883560;e.att=64";

/// Calls f(spec, member) for row `i` of the list only.
template <class Options, class F>
void with_row(Options& o, int i, F&& f) {
  int row = 0;
  for_each_option(o, [&](const OptionSpec& spec, auto& member) {
    if (row++ == i) f(spec, member);
  });
}

int row_count() {
  int n = 0;
  PipelineOptions o;
  for_each_option(o, [&n](const OptionSpec&, const auto&) { ++n; });
  return n;
}

/// Every member's value, in row order.
std::vector<std::string> values(const PipelineOptions& o) {
  std::vector<std::string> out;
  for_each_option(o, [&out](const OptionSpec&, const auto& member) {
    std::ostringstream s;
    s << std::setprecision(17) << +member;
    out.push_back(s.str());
  });
  return out;
}

/// {"a":{"b":value}} for the path "a.b".
Json at_path(const std::string& path, Json value) {
  const std::size_t dot = path.rfind('.');
  Json leaf = Json::object();
  leaf.set(path.substr(dot == std::string::npos ? 0 : dot + 1),
           std::move(value));
  return dot == std::string::npos ? leaf : at_path(path.substr(0, dot), leaf);
}

/// The reader's verdict on {path: value} over the default options: "" when
/// admitted, else the error.
std::string read_error(const std::string& path, Json value,
                       PipelineOptions* out = nullptr) {
  PipelineOptions o;
  std::string err;
  const bool ok = o.read_json(at_path(path, std::move(value)),
                              "spec.options.", &err);
  if (out) *out = o;
  return ok ? "" : err;
}

std::string job_json(const JobSummary& s) { return s.to_json_value().dump(0); }

}  // namespace

TEST(Options, DefaultFingerprintIsPinned) {
  const std::string f = PipelineOptions{}.fingerprint();
  EXPECT_EQ(f, kDefaultFingerprint);
  EXPECT_EQ(f.size(), 423u);
}

TEST(Options, DerivedJobFingerprintIsPinned) {
  ExperimentSpec spec;
  spec.cases = {"wcmp"};
  spec.seed = 7;
  std::uint64_t salt = 0;
  const PipelineOptions o = derived_job_options(spec, 3, &salt);
  EXPECT_EQ(salt, 3467252261107883461ull);
  EXPECT_EQ(o.fingerprint(), kDerivedFingerprint);
}

TEST(Options, JournalWrittenBeforeTheListReplaysFullyCached) {
  // tests/golden/pf1.journal was written by xplaind, before the options
  // list existed, for exactly this request (its options and variants are
  // read here through today's reader).
  const Json options = *Json::parse(
      R"({"min_gap": 1.0, "subspace": {"max_subspaces": 1,
          "max_expansion_rounds": 8, "dkw_eps": 0.15, "tree_samples": 120,
          "seed": "2024", "keep_insignificant": true,
          "tree": {"max_depth": 4},
          "significance": {"pairs": 40, "p_threshold": 0.5, "seed": "7",
                           "workers": 1}},
          "explain": {"samples": 40, "seed": "99", "workers": 1}})");
  const Json variants = *Json::parse(
      R"([{}, {"subspace": {"density_threshold": 0.7},
               "explain": {"flow_eps": 0.001}}])");
  ExperimentSpec spec;
  spec.cases = {"demand_pinning_chain", "wcmp"};
  scenario::ScenarioSpec line;
  line.kind = scenario::TopologyKind::kLine;
  line.size = 3;
  spec.scenarios = {line};
  spec.seed = 7;
  std::string err;
  ASSERT_TRUE(spec.options.read_json(options, "spec.options.", &err)) << err;
  for (const Json& v : variants.items()) {
    PipelineOptions variant = spec.options;
    ASSERT_TRUE(variant.read_json(v, "spec.option_variants[i].", &err)) << err;
    spec.option_variants.push_back(variant);
  }

  // The journal's records, key -> job JSON.
  std::ifstream in(XPLAIN_REPO_ROOT "/tests/golden/pf1.journal",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string path = "test_options_pf1.journal";
  std::map<std::string, std::string> records;
  {
    std::ofstream copy(path, std::ios::binary | std::ios::trunc);
    std::string line_text;
    while (std::getline(in, line_text)) {
      copy << line_text << '\n';
      const std::size_t tab = line_text.find('\t');
      ASSERT_NE(tab, std::string::npos);
      records[line_text.substr(0, tab)] = line_text.substr(tab + 1);
    }
  }
  ASSERT_EQ(records.size(), 4u);

  const solver::LpCounters before = solver::lp_counters();
  {
    server::ServiceOptions so;
    so.workers = 2;
    so.cache_path = path;
    server::Service svc(so);
    EXPECT_EQ(svc.stats().cache_replayed, 4);
    int cached = 0;
    const ExperimentSummary s =
        svc.run(spec, [&cached](const JobSummary&, bool from_cache) {
          cached += from_cache;  // serialized per submission
        });
    ASSERT_EQ(s.jobs.size(), 4u);
    EXPECT_EQ(cached, 4);
    for (const JobSummary& j : s.jobs) {
      const std::string key = server::ResultCache::key(
          j.case_name, line.cache_key(), j.options_fingerprint, j.seed);
      ASSERT_EQ(records.count(key), 1u) << j.case_name << " #" << j.index;
      EXPECT_EQ(job_json(j), records[key]) << "bitwise, job " << j.index;
    }
    EXPECT_EQ(svc.stats().cache_misses, 0);
  }
  EXPECT_EQ(solver::lp_counters().solves - before.solves, 0);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(Options, TheListHasOneRowPerKnobAndUniqueNames) {
  EXPECT_EQ(row_count(), 27);
  std::set<std::string> paths, keys;
  int keyed = 0, streams = 0;
  PipelineOptions o;
  for_each_option(o, [&](const OptionSpec& spec, const auto& member) {
    EXPECT_TRUE(paths.insert(spec.path).second) << spec.path;
    if (spec.fp_key) {
      ++keyed;
      EXPECT_TRUE(keys.insert(spec.fp_key).second) << spec.fp_key;
    }
    if (spec.stream) {
      ++streams;
      EXPECT_TRUE((std::is_same_v<std::decay_t<decltype(member)>,
                                  std::uint64_t>))
          << spec.path;
    }
  });
  EXPECT_EQ(keyed, 25) << "every knob but the two worker counts";
  EXPECT_EQ(streams, 3);
}

TEST(Options, PerturbingARowChangesTheFingerprintExactlyWhenItIsKeyed) {
  const std::string base = PipelineOptions{}.fingerprint();
  for (int i = 0; i < row_count(); ++i) {
    PipelineOptions o;
    bool keyed = false;
    std::string path;
    with_row(o, i, [&](const OptionSpec& spec, auto& member) {
      using T = std::decay_t<decltype(member)>;
      keyed = spec.fp_key != nullptr;
      path = spec.path;
      if constexpr (std::is_same_v<T, bool>)
        member = !member;
      else if constexpr (std::is_same_v<T, double>)  // the smallest change
        member = std::nextafter(member, std::numeric_limits<double>::max());
      else
        member += 1;
    });
    EXPECT_EQ(o.fingerprint() != base, keyed) << path;
  }
}

TEST(Options, SaltOffsetsExactlyTheStreamRows) {
  const PipelineOptions base;
  const PipelineOptions salted = apply_seed_salt(base, 1000);
  EXPECT_EQ(salted.seed_salt, 1000u);
  EXPECT_EQ(salted.subspace.seed, base.subspace.seed + 1000);
  EXPECT_EQ(salted.subspace.significance.seed,
            base.subspace.significance.seed + 1000);
  EXPECT_EQ(salted.explain.seed, base.explain.seed + 1000);
  const std::vector<std::string> a = values(base), b = values(salted);
  std::size_t i = 0;
  for_each_option(base, [&](const OptionSpec& spec, const auto&) {
    const bool moves = spec.stream || std::string(spec.path) == "seed_salt";
    EXPECT_EQ(a[i] != b[i], moves) << spec.path;
    ++i;
  });
}

TEST(Options, ReadingAPathSetsExactlyThatMember) {
  const std::vector<std::string> base = values(PipelineOptions{});
  for (int i = 0; i < row_count(); ++i) {
    PipelineOptions o;
    Json value;
    std::string path;
    // A value other than the default inside the row's range.
    with_row(o, i, [&](const OptionSpec& spec, const auto& member) {
      using T = std::decay_t<decltype(member)>;
      path = spec.path;
      if constexpr (std::is_same_v<T, bool>) {
        value = Json(!member);
      } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        value = Json("18446744073709551615");  // 64-bit seeds as strings
      } else {
        const OptionRange& r = spec.range;
        const double pick = !r.hi_open && r.hi != member ? r.hi : r.lo;
        value = Json(static_cast<T>(pick));
      }
    });
    PipelineOptions read;
    ASSERT_EQ(read_error(path, value, &read), "") << path;
    const std::vector<std::string> got = values(read);
    for (std::size_t j = 0; j < got.size(); ++j)
      EXPECT_EQ(got[j] != base[j], static_cast<int>(j) == i)
          << "reading " << path << " moved row " << j;
  }
}

TEST(Options, EachBoundIsAdmittedAndTheNextValuePastItIsRejected) {
  int checked = 0;
  for (int i = 0; i < row_count(); ++i) {
    PipelineOptions o;
    with_row(o, i, [&](const OptionSpec& spec, const auto& member) {
      using T = std::decay_t<decltype(member)>;
      if constexpr (std::is_same_v<T, double> || std::is_same_v<T, int>) {
        const OptionRange& r = spec.range;
        const std::string want =
            std::string("spec.options.") + spec.path + " must be in ";
        // (bound, open?, direction away from the range)
        const struct {
          double bound;
          bool open;
          double outward;
        } ends[] = {{r.lo, r.lo_open, -1.0}, {r.hi, r.hi_open, 1.0}};
        for (const auto& end : ends) {
          double inside = end.bound, outside = end.bound;
          if constexpr (std::is_same_v<T, int>) {
            ASSERT_FALSE(end.open) << spec.path << ": int ranges are closed";
            outside = end.bound + end.outward;
          } else if (end.open) {
            inside = std::nextafter(end.bound, -end.outward * HUGE_VAL);
          } else {
            outside = std::nextafter(end.bound, end.outward * HUGE_VAL);
          }
          EXPECT_EQ(read_error(spec.path, Json(static_cast<T>(inside))), "")
              << spec.path << " = " << inside;
          const std::string err =
              read_error(spec.path, Json(static_cast<T>(outside)));
          EXPECT_EQ(err.rfind(want, 0), 0u)
              << spec.path << " = " << outside << ": " << err;
          ++checked;
        }
      }
    });
  }
  EXPECT_EQ(checked, 2 * 22) << "both ends of every double and int row";
}

TEST(Options, UnknownKeysAndWrongKindsNameThePath) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {R"({"subspace":{"dkw_esp":0.2}})",
       "spec.options.subspace.dkw_esp is not an option"},
      {R"({"dkw_eps":0.2})", "spec.options.dkw_eps is not an option"},
      {R"({"subspace.dkw_eps":0.2})",
       "spec.options.subspace.dkw_eps is not an option"},
      {R"({"workers":2})", "spec.options.workers is not an option"},
      {R"({"subspace":{"dkw_eps":"0.1"}})",
       "spec.options.subspace.dkw_eps must be a number"},
      {R"({"min_gap":true})", "spec.options.min_gap must be a number"},
      {R"({"subspace":{"tree":{"max_depth":"4"}}})",
       "spec.options.subspace.tree.max_depth must be an integer in int "
       "range"},
      {R"({"subspace":{"keep_insignificant":1}})",
       "spec.options.subspace.keep_insignificant must be true or false"},
      {R"({"explain":{"seed":-1}})",
       "spec.options.explain.seed must be an integer in [0, 2^64)"},
      {R"({"subspace":{"significance":5}})",
       "spec.options.subspace.significance must be an object"},
      {R"({"explain":[]})", "spec.options.explain must be an object"},
      {R"([1])", "spec.options must be an object"},
      // Out of range, as the repro requests sent them.
      {R"({"subspace":{"dkw_eps":0}})",
       "spec.options.subspace.dkw_eps must be in [0.01, 1]"},
      {R"({"subspace":{"dkw_delta":2}})",
       "spec.options.subspace.dkw_delta must be in [1e-06, 1)"},
      {R"({"explain":{"samples":-7}})",
       "spec.options.explain.samples must be in [0, 100000]"},
      {R"({"subspace":{"tree_samples":2e9}})",
       "spec.options.subspace.tree_samples must be in [0, 100000]"},
      {R"({"explain":{"workers":2e9}})",
       "spec.options.explain.workers must be in [0, 4096]"}};
  for (const auto& [text, want] : bad) {
    PipelineOptions o;
    std::string err;
    EXPECT_FALSE(o.read_json(*Json::parse(text), "spec.options.", &err))
        << text;
    EXPECT_EQ(err, want) << text;
  }
}

TEST(Options, EngineJobWithInvalidOptionsFailsBeforeAnythingRuns) {
  ExperimentSpec spec;
  spec.cases = {"wcmp"};
  spec.workers = 1;
  spec.options.subspace.dkw_eps = 0.0;
  const solver::LpCounters before = solver::lp_counters();
  const ExperimentResult r = Engine().run(spec);
  ASSERT_EQ(r.jobs.size(), 1u);
  const JobResult& job = r.jobs[0];
  EXPECT_FALSE(job.ok);
  EXPECT_NE(job.error.find("subspace.dkw_eps must be in [0.01, 1]"),
            std::string::npos)
      << job.error;
  EXPECT_EQ(job.pipeline.stages.lp_solves, 0);
  EXPECT_EQ(solver::lp_counters().solves - before.solves, 0);
  std::uint64_t seed = 0;
  const PipelineOptions derived = derived_job_options(spec, 0, &seed);
  EXPECT_EQ(job.seed, seed);
  EXPECT_NE(job.seed, 0u);
  EXPECT_EQ(job.options_fingerprint, derived.fingerprint());
  EXPECT_EQ(r.case_builds, 0);
}

TEST(Options, ServiceJobWithInvalidOptionsFailsAndIsNotCached) {
  ExperimentSpec spec;
  spec.cases = {"wcmp"};
  scenario::ScenarioSpec line;
  line.kind = scenario::TopologyKind::kLine;
  line.size = 3;
  spec.scenarios = {line};
  spec.options.explain.workers = 5000;
  server::ServiceOptions so;
  so.workers = 1;
  server::Service svc(so);
  const ExperimentSummary s = svc.run(spec);
  ASSERT_EQ(s.jobs.size(), 1u);
  EXPECT_FALSE(s.jobs[0].ok);
  EXPECT_EQ(s.jobs[0].error, "explain.workers must be in [0, 4096]");
  EXPECT_EQ(s.jobs[0].lp_solves, 0);
  EXPECT_FALSE(s.jobs[0].options_fingerprint.empty());
  const server::ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_entries, 0u);
  EXPECT_EQ(st.case_builds, 0);
}

TEST(Options, EveryCommittedCallersOptionsAreAdmitted) {
  std::vector<std::pair<std::string, PipelineOptions>> callers;
  callers.emplace_back("defaults", PipelineOptions{});
  callers.emplace_back("fuzzer probe", search::FuzzerOptions::probe_defaults());
  callers.emplace_back("fuzzer deep", search::FuzzerOptions::deep_defaults());
  PipelineOptions trimmed;  // the benchmark's trimmed() budgets
  trimmed.min_gap = 1.0;
  trimmed.subspace.max_subspaces = 1;
  trimmed.subspace.max_expansion_rounds = 8;
  trimmed.subspace.dkw_eps = 0.15;
  trimmed.subspace.tree_samples = 120;
  trimmed.subspace.significance.pairs = 40;
  trimmed.subspace.significance.workers = 1;
  trimmed.explain.samples = 40;
  trimmed.explain.workers = 1;
  callers.emplace_back("trimmed", trimmed);
  PipelineOptions fig4;
  fig4.subspace.max_subspaces = 1;
  fig4.explain.samples = 3000;
  callers.emplace_back("fig4", fig4);
  PipelineOptions service;
  service.subspace.tree_samples = 120;
  service.subspace.significance.pairs = 40;
  service.subspace.significance.p_threshold = 0.5;
  service.explain.samples = 80;
  callers.emplace_back("bench_service", service);
  PipelineOptions localize;
  localize.min_gap = 40.0;
  localize.explain.flow_eps = 20.0;
  localize.explain.samples = 1500;
  callers.emplace_back("examples", localize);
  for (const auto& [name, o] : callers) {
    EXPECT_EQ(o.validate(), "") << name;
    EXPECT_EQ(apply_seed_salt(o, ~0ull).validate(), "") << name << " salted";
  }
}
