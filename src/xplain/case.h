// HeuristicCase: the pluggable unit the XPlain pipeline runs on.
//
// A case bundles everything the Fig. 3 pipeline needs to know about one
// (heuristic, benchmark, problem instance) study:
//   * the input space it searches (a Box plus human-readable dim names),
//   * a GapEvaluator factory (heuristic-vs-benchmark gap at a point),
//   * a default HeuristicAnalyzer factory (pattern search unless the case
//     overrides it with something exact),
//   * the DSL FlowNetwork Type-2 heatmaps are rendered on,
//   * a FlowOracle producing (heuristic, benchmark) edge flows per sample,
//   * instance features + a gap scale feeding Type-3 generalization.
//
// The core layers (analyzer, subspace, explain, xplain) know nothing about
// concrete heuristics: cases adapt themselves to the evaluator interface
// and register in the process-wide CaseRegistry, so new heuristics plug in
// without touching src/xplain, src/analyzer or src/subspace.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analyzer/analyzer.h"
#include "explain/explainer.h"
#include "scenario/spec.h"  // the dependency-free spec POD only (layering-pinned)
#include "util/thread_annotations.h"

namespace xplain {

class HeuristicCase {
 public:
  virtual ~HeuristicCase() = default;

  /// Registry key, e.g. "demand_pinning" / "first_fit" / "best_fit".
  virtual std::string name() const = 0;
  /// One-line human description (listings, README-style output).
  virtual std::string description() const { return {}; }

  /// Fresh gap evaluator for this case's instance.
  virtual std::unique_ptr<analyzer::GapEvaluator> make_evaluator() const = 0;

  /// Analyzer the pipeline uses; defaults to the scalable pattern search.
  /// `seed_salt` decorrelates stochastic analyzers across grid jobs (the
  /// engine derives it per job); deterministic analyzers may ignore it.
  virtual std::unique_ptr<analyzer::HeuristicAnalyzer> make_analyzer(
      std::uint64_t seed_salt = 0) const;

  /// The DSL network explanations are scored on. Owned by the case.
  virtual const flowgraph::FlowNetwork& network() const = 0;

  /// Type-2 oracle. May capture `this`; the case must outlive the oracle.
  virtual explain::FlowOracle make_oracle() const = 0;

  /// Input-space description; defaults delegate to a fresh evaluator.
  virtual analyzer::Box input_box() const;
  virtual std::vector<std::string> dim_names() const;

  /// Instance features for Type-3 generalization (empty: not generalizable).
  virtual std::map<std::string, double> features() const { return {}; }
  /// Gaps are divided by this when normalizing across instances.
  virtual double gap_scale() const { return 1.0; }
};

/// Process-wide name -> case factory map.  Thread-safe: Engine workers may
/// look cases up (and trigger lazy builds) concurrently.
///
/// Factories are *scenario-parameterized*: they receive a nullable
/// scenario::ScenarioSpec pointer.  nullptr asks for the case's default
/// instance (DP's Fig. 1a, VBP's 4-ball paper configuration, WCMP's
/// fat-tree(4)); a non-null spec asks the case to construct itself from the
/// generated topology/instance — the hook the experiment engine's
/// (case x scenario) grids expand through.  A factory that cannot build
/// from a spec returns nullptr for non-null specs (zero-argument factories
/// registered through the template overload behave exactly like that), so
/// a scenario grid over a default-only case fails loudly instead of
/// silently running the default instance under a scenario label.
class CaseRegistry {
 public:
  using Factory = std::function<std::shared_ptr<HeuristicCase>(
      const scenario::ScenarioSpec* /*nullable: default instance*/)>;

  /// Registers a spec-aware factory; returns false (keeping the existing
  /// entry) when the name is already taken.
  bool add(const std::string& name, Factory factory) XPLAIN_EXCLUDES(mu_);

  /// Back-compat registration for default-only cases: a zero-argument
  /// callable is wrapped so it serves the default path and declines
  /// (returns nullptr) scenario-parameterized construction.
  template <class F,
            std::enable_if_t<std::is_invocable_v<F&>, int> = 0>
  bool add(const std::string& name, F factory) {
    return add(name,
               Factory([f = std::move(factory)](
                           const scenario::ScenarioSpec* spec)
                           -> std::shared_ptr<HeuristicCase> {
                 if (spec) return nullptr;  // default-only case
                 return f();
               }));
  }

  /// The default-configured case for `name`, built lazily and cached for
  /// the process lifetime; nullptr when unknown.  Scenario-built cases are
  /// never cached here: create(name, spec) hands out fresh instances (the
  /// engine's JobRunner memoizes them per grid cell).
  std::shared_ptr<const HeuristicCase> find(const std::string& name)
      XPLAIN_EXCLUDES(mu_);

  /// A fresh, uncached default instance; nullptr when unknown.
  std::shared_ptr<HeuristicCase> create(const std::string& name) const
      XPLAIN_EXCLUDES(mu_);

  /// A fresh, uncached scenario-built instance; nullptr when the name is
  /// unknown or the case is default-only.
  std::shared_ptr<HeuristicCase> create(
      const std::string& name, const scenario::ScenarioSpec& spec) const
      XPLAIN_EXCLUDES(mu_);

  bool contains(const std::string& name) const XPLAIN_EXCLUDES(mu_);
  std::vector<std::string> names() const XPLAIN_EXCLUDES(mu_);

 private:
  /// Factory lookup shared by the create() overloads; empty when unknown.
  Factory factory_for(const std::string& name) const XPLAIN_EXCLUDES(mu_);

  mutable util::Mutex mu_;
  std::map<std::string, Factory> factories_ XPLAIN_GUARDED_BY(mu_);
  /// find()'s default instances, by registry name.
  std::map<std::string, std::shared_ptr<const HeuristicCase>> defaults_
      XPLAIN_GUARDED_BY(mu_);
};

/// The process-wide registry the built-in cases register into.
CaseRegistry& registry();

/// Registers at static-initialization time.  Both factory shapes work:
///   static CaseRegistrar reg("my_case",
///       [](const scenario::ScenarioSpec* spec) { ... });   // spec-aware
///   static CaseRegistrar reg("my_case",
///       [] { return std::make_shared<...>(); });           // default-only
struct CaseRegistrar {
  CaseRegistrar(const std::string& name, CaseRegistry::Factory factory);

  template <class F, std::enable_if_t<std::is_invocable_v<F&>, int> = 0>
  CaseRegistrar(const std::string& name, F factory) {
    registry().add(name, std::move(factory));
  }
};

}  // namespace xplain
