// A First-Fit case that counts its instances, for the JobRunner memo tests
// in test_engine and test_server: whatever an Engine or Service still
// holds after its jobs finish shows up in live_count().
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "cases/ff_case.h"
#include "xplain/case.h"

namespace xplain::memo_test {

inline std::atomic<int> g_counted_live{0};
inline std::atomic<int> g_counted_built{0};

inline int live_count() { return g_counted_live.load(); }
inline int built_count() { return g_counted_built.load(); }

class CountedFfCase : public cases::VbpCase {
 public:
  explicit CountedFfCase(vbp::VbpInstance inst) : VbpCase(std::move(inst)) {
    g_counted_live.fetch_add(1);
    g_counted_built.fetch_add(1);
  }
  ~CountedFfCase() override { g_counted_live.fetch_sub(1); }
};

/// Registers the counting case (once) and returns its registry name.
inline const std::string& counted_case() {
  static const std::string name = [] {
    const std::string n = "counted_first_fit";
    registry().add(n, CaseRegistry::Factory(
                          [](const scenario::ScenarioSpec* spec)
                              -> std::shared_ptr<HeuristicCase> {
                            return std::make_shared<CountedFfCase>(
                                spec ? cases::VbpCase::scenario_instance(*spec)
                                     : cases::VbpCase::paper_instance());
                          }));
    return n;
  }();
  return name;
}

}  // namespace xplain::memo_test
