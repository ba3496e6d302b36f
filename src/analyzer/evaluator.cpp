#include "analyzer/evaluator.h"

#include <algorithm>
#include <atomic>
#include <sstream>

namespace xplain::analyzer {

bool Box::contains(const std::vector<double>& x, double tol) const {
  if (x.size() != lo.size()) return false;
  for (std::size_t i = 0; i < lo.size(); ++i)
    if (x[i] < lo[i] - tol || x[i] > hi[i] + tol) return false;
  return true;
}

double Box::volume() const {
  double v = 1.0;
  for (std::size_t i = 0; i < lo.size(); ++i)
    v *= std::max(0.0, hi[i] - lo[i]);
  return v;
}

Box Box::intersect(const Box& o) const {
  Box r;
  r.lo.resize(lo.size());
  r.hi.resize(hi.size());
  for (std::size_t i = 0; i < lo.size(); ++i) {
    r.lo[i] = std::max(lo[i], o.lo[i]);
    r.hi[i] = std::min(hi[i], o.hi[i]);
  }
  return r;
}

bool Box::empty() const {
  for (std::size_t i = 0; i < lo.size(); ++i)
    if (lo[i] > hi[i]) return true;
  return lo.empty();
}

std::vector<double> Box::center() const {
  std::vector<double> c(lo.size());
  for (std::size_t i = 0; i < lo.size(); ++i) c[i] = 0.5 * (lo[i] + hi[i]);
  return c;
}

std::string Box::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < lo.size(); ++i) {
    if (i) os << " x ";
    os << "[" << lo[i] << ", " << hi[i] << "]";
  }
  return os.str();
}

namespace {

std::uint64_t next_evaluator_id() {
  static std::atomic<std::uint64_t> counter{0};
  // Relaxed: ids only need uniqueness, not ordering against other memory.
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;  // 0 unused
}

}  // namespace

GapEvaluator::GapEvaluator() : id_(next_evaluator_id()) {}

std::vector<std::string> GapEvaluator::dim_names() const {
  std::vector<std::string> names(dim());
  for (int i = 0; i < dim(); ++i) names[i] = "x" + std::to_string(i);
  return names;
}

}  // namespace xplain::analyzer
