#include "xplain/pipeline.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "solver/lp.h"
#include "util/logging.h"
#include "util/timer.h"

namespace xplain {

namespace {

/// Decorates an analyzer to accumulate the wall time spent inside
/// find_adversarial (so the generator's total splits into analyze vs
/// subspace-construction time) and the best gap observed (so Type-3 sees
/// the raw analyzer signal even when every subspace is later rejected).
class TimedAnalyzer : public analyzer::HeuristicAnalyzer {
 public:
  TimedAnalyzer(analyzer::HeuristicAnalyzer& inner, double& accum,
                double& best_gap)
      : inner_(inner), accum_(accum), best_gap_(best_gap) {}

  std::optional<analyzer::AdversarialExample> find_adversarial(
      const analyzer::GapEvaluator& eval, double min_gap,
      const std::vector<analyzer::Box>& excluded) override {
    util::Timer timer;
    auto out = inner_.find_adversarial(eval, min_gap, excluded);
    accum_ += timer.seconds();
    if (out) best_gap_ = std::max(best_gap_, out->gap);
    return out;
  }

  std::string name() const override { return inner_.name(); }

 private:
  analyzer::HeuristicAnalyzer& inner_;
  double& accum_;
  double& best_gap_;
};

}  // namespace

PipelineOptions apply_seed_salt(PipelineOptions opts, std::uint64_t salt) {
  opts.seed_salt = salt;  // consumed by HeuristicCase::make_analyzer
  for_each_option(opts, [salt](const OptionSpec& spec, auto& member) {
    if constexpr (std::is_same_v<std::decay_t<decltype(member)>,
                                 std::uint64_t>)
      if (spec.stream) member += salt;
  });
  return opts;
}

namespace {

// Fingerprint encodings.  Doubles by bit pattern (the ScenarioSpec::cache_key
// idiom): printing would truncate and alias nearby values, breaking
// injectivity.
std::string encode(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return std::to_string(u);
}
std::string encode(int v) { return std::to_string(v); }
std::string encode(std::uint64_t v) { return std::to_string(v); }
std::string encode(bool v) { return v ? "1" : "0"; }

std::string format_bound(double v) {
  if (v == option_bounds::kFinite) return "inf";
  std::ostringstream out;
  out << v;
  return out.str();
}

/// "[0.01, 1]", "(0, 1]", "[0, inf)".
std::string describe(const OptionRange& r) {
  return (r.lo_open ? "(" : "[") + format_bound(r.lo) + ", " +
         format_bound(r.hi) +
         (r.hi_open || r.hi == option_bounds::kFinite ? ")" : "]");
}

// Every options struct's member count.  A member added to one of them
// without a for_each_option row fails to compile here.
[[maybe_unused]] void check_member_counts(const PipelineOptions& o) {
  [[maybe_unused]] const auto& [p1, p2, p3, p4] = o;
  [[maybe_unused]] const auto& [s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11,
                                s12, s13, s14] = o.subspace;
  [[maybe_unused]] const auto& [t1, t2, t3] = o.subspace.tree;
  [[maybe_unused]] const auto& [g1, g2, g3, g4, g5] = o.subspace.significance;
  [[maybe_unused]] const auto& [e1, e2, e3, e4, e5] = o.explain;
}

// Reads the members of the options object `v` found under `prefix` (a row
// path prefix: "" or "subspace." ...), recursing into nested groups.
bool read_members(PipelineOptions& o, const util::Json& v,
                  const std::string& prefix, const std::string& where,
                  std::string* err) {
  if (v.kind() != util::Json::Kind::kObject) {
    std::string name = where + prefix;  // ends with '.' unless empty
    if (!name.empty()) name.pop_back();
    *err = (name.empty() ? "options" : name) + " must be an object";
    return false;
  }
  for (const auto& [key, value] : v.members()) {
    const std::string path = prefix + key;
    // One path segment per key: a dotted key names no row.
    const bool segment = !key.empty() && key.find('.') == std::string::npos;
    bool known = false, group = false, ok = true;
    for_each_option(o, [&](const OptionSpec& spec, auto& member) {
      if (!segment) return;
      if (path == spec.path) {
        known = true;
        ok = util::read_value(value, where + path, &member, err);
      } else if (std::string(spec.path).rfind(path + ".", 0) == 0) {
        group = true;
      }
    });
    if (known) {
      if (!ok) return false;
    } else if (!group) {
      *err = where + path + " is not an option";
      return false;
    } else if (!read_members(o, value, path + ".", where, err)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string PipelineOptions::fingerprint() const {
  std::string f = "pf1";
  for_each_option(*this, [&f](const OptionSpec& spec, const auto& member) {
    if (spec.fp_key) f += std::string(";") + spec.fp_key + "=" + encode(member);
  });
  return f;
}

std::string PipelineOptions::validate() const {
  std::string bad;
  for_each_option(*this, [&bad](const OptionSpec& spec, const auto& member) {
    using T = std::decay_t<decltype(member)>;
    if constexpr (std::is_same_v<T, double> || std::is_same_v<T, int>) {
      if (bad.empty() && !spec.range.contains(member))
        bad = std::string(spec.path) + " must be in " + describe(spec.range);
    }
  });
  return bad;
}

bool PipelineOptions::read_json(const util::Json& v, const std::string& where,
                                std::string* err) {
  if (!read_members(*this, v, "", where, err)) return false;
  const std::string bad = validate();
  if (bad.empty()) return true;
  *err = where + bad;
  return false;
}

StageTimes& StageTimes::operator+=(const StageTimes& o) {
  compile_seconds += o.compile_seconds;
  analyze_seconds += o.analyze_seconds;
  subspace_seconds += o.subspace_seconds;
  explain_seconds += o.explain_seconds;
  LpWork::operator+=(o);
  return *this;
}

double PipelineResult::max_gap() const {
  double g = 0.0;
  for (const auto& s : subspaces) g = std::max(g, s.seed_gap);
  return g;
}

int PipelineResult::count_significant() const {
  int n = 0;
  for (const auto& s : subspaces) n += s.significant;
  return n;
}

PipelineResult run_pipeline(const HeuristicCase& c,
                            const PipelineOptions& opts) {
  util::Timer timer;
  PipelineResult out;

  util::Timer compile;
  auto eval = c.make_evaluator();
  auto an = c.make_analyzer(opts.seed_salt);
  const flowgraph::FlowNetwork& net = c.network();
  auto oracle = c.make_oracle();
  out.stages.compile_seconds = compile.seconds();

  // The stage LP tallies cover analyze, subspace and explain, not compile.
  const solver::LpCounters lp0 = solver::lp_counters();
  TimedAnalyzer timed(*an, out.stages.analyze_seconds, out.best_gap_found);
  subspace::SubspaceGenerator gen(timed, opts.subspace);
  {
    util::Timer stage;
    out.subspaces = gen.generate(*eval, opts.min_gap);
    out.stages.subspace_seconds = stage.seconds() - out.stages.analyze_seconds;
  }
  out.trace = gen.trace();

  {
    util::Timer stage;
    out.explanations.reserve(out.subspaces.size());
    for (const auto& sub : out.subspaces) {
      out.explanations.push_back(explain::explain_subspace(
          *eval, sub.region, net, oracle, opts.explain));
    }
    out.stages.explain_seconds = stage.seconds();
  }
  out.stages.set_lp_delta(lp0, solver::lp_counters());
  out.case_name = c.name();
  out.features = c.features();
  out.gap_scale = c.gap_scale();
  out.wall_seconds = timer.seconds();
  XPLAIN_INFO << "pipeline: " << out.subspaces.size() << " subspaces in "
              << out.wall_seconds << "s (" << out.stages.lp_solves
              << " LP solves)";
  return out;
}

}  // namespace xplain
