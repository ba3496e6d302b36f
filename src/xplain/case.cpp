#include "xplain/case.h"

#include "analyzer/search_analyzer.h"

namespace xplain {

std::unique_ptr<analyzer::HeuristicAnalyzer> HeuristicCase::make_analyzer(
    std::uint64_t seed_salt) const {
  analyzer::SearchOptions opts;
  opts.seed += seed_salt;
  return std::make_unique<analyzer::SearchAnalyzer>(opts);
}

analyzer::Box HeuristicCase::input_box() const {
  return make_evaluator()->input_box();
}

std::vector<std::string> HeuristicCase::dim_names() const {
  return make_evaluator()->dim_names();
}

bool CaseRegistry::add(const std::string& name, Factory factory) {
  util::MutexLock lock(&mu_);
  return factories_.emplace(name, std::move(factory)).second;
}

std::shared_ptr<const HeuristicCase> CaseRegistry::find(
    const std::string& name) {
  {
    util::MutexLock lock(&mu_);
    if (auto it = defaults_.find(name); it != defaults_.end())
      return it->second;
  }
  // Build outside the lock: factories construct networks and may log.  Two
  // threads racing on an uncached name both build; the emplace below keeps
  // the first insert and hands the loser the winner's instance, so callers
  // always share one default per name.
  std::shared_ptr<const HeuristicCase> built = create(name);
  if (!built) return nullptr;
  util::MutexLock lock(&mu_);
  return defaults_.emplace(name, std::move(built)).first->second;  // first wins
}

CaseRegistry::Factory CaseRegistry::factory_for(const std::string& name) const {
  util::MutexLock lock(&mu_);
  auto it = factories_.find(name);
  return it == factories_.end() ? Factory() : it->second;
}

std::shared_ptr<HeuristicCase> CaseRegistry::create(
    const std::string& name) const {
  Factory factory = factory_for(name);
  return factory ? factory(nullptr) : nullptr;  // build outside the lock
}

std::shared_ptr<HeuristicCase> CaseRegistry::create(
    const std::string& name, const scenario::ScenarioSpec& spec) const {
  Factory factory = factory_for(name);
  return factory ? factory(&spec) : nullptr;  // build outside the lock
}

bool CaseRegistry::contains(const std::string& name) const {
  util::MutexLock lock(&mu_);
  return factories_.count(name) > 0;
}

std::vector<std::string> CaseRegistry::names() const {
  util::MutexLock lock(&mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

CaseRegistry& registry() {
  static CaseRegistry* instance = new CaseRegistry();
  return *instance;
}

CaseRegistrar::CaseRegistrar(const std::string& name,
                             CaseRegistry::Factory factory) {
  registry().add(name, std::move(factory));
}

}  // namespace xplain
