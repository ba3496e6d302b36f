// A GapEvaluator decorator for tests: forwards every call to another
// evaluator, counting gap() calls and logging the points they were made at.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/evaluator.h"

namespace xplain::test_support {

class CountingEvaluator : public analyzer::GapEvaluator {
 public:
  explicit CountingEvaluator(const GapEvaluator& inner) : inner_(inner) {}

  int dim() const override { return inner_.dim(); }
  analyzer::Box input_box() const override { return inner_.input_box(); }
  double gap(const std::vector<double>& x) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      points_.push_back(x);
    }
    return inner_.gap(x);
  }
  std::vector<double> quantize(const std::vector<double>& x) const override {
    return inner_.quantize(x);
  }
  std::string name() const override { return inner_.name(); }

  long calls() const { return calls_.load(); }
  /// The points scored since the last call, in call order.
  std::vector<std::vector<double>> take_points() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(points_, {});
  }

 private:
  const GapEvaluator& inner_;
  mutable std::atomic<long> calls_{0};
  mutable std::mutex mu_;
  mutable std::vector<std::vector<double>> points_;
};

}  // namespace xplain::test_support
