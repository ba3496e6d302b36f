// GapEvaluator: the function the whole XPlain pipeline revolves around.
//
// An evaluator wraps a (heuristic, benchmark, problem instance) triple and
// exposes gap(input) = how much worse the heuristic performs than the
// benchmark at that input point.  The subspace generator samples it, the
// search analyzer maximizes it, and the significance checker tests it.
//
// This layer is heuristic-agnostic: concrete evaluators live with their
// case studies under src/cases (cases adapt themselves to this interface,
// never the other way around).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xplain::analyzer {

/// Axis-aligned input box.
struct Box {
  std::vector<double> lo, hi;

  int dim() const { return static_cast<int>(lo.size()); }
  bool contains(const std::vector<double>& x, double tol = 0.0) const;
  double volume() const;
  /// Intersection; empty result boxes have lo > hi in some dimension.
  Box intersect(const Box& o) const;
  bool empty() const;
  std::vector<double> center() const;
  std::string to_string() const;
};

/// Contract: gap() is a pure function of `x` for the object's lifetime —
/// the same bits in give the same bits out, on any thread and in any call
/// order.  The per-thread solver caches (keyed on id()) and the search
/// analyzer's cross-call reuse both rely on it.
class GapEvaluator {
 public:
  GapEvaluator();
  virtual ~GapEvaluator() = default;

  /// Process-unique identity, drawn at construction and shared by copies.
  /// State cached per evaluator is keyed on it rather than on the object's
  /// address: an evaluator freed and rebuilt at the same address gets a
  /// new id, so it can never alias a dead one's cache entry.
  std::uint64_t id() const { return id_; }

  /// Input dimensionality.
  virtual int dim() const = 0;
  /// The input space the analyzer searches.
  virtual Box input_box() const = 0;
  /// Heuristic-vs-benchmark gap at `x` (>= 0 in the usual case; 0 for
  /// points the heuristic cannot run on).
  virtual double gap(const std::vector<double>& x) const = 0;
  /// Snaps a point to the evaluator's input quantization (identity when the
  /// input space is continuous).  The MILP analyzers only certify points on
  /// their grid.
  virtual std::vector<double> quantize(const std::vector<double>& x) const {
    return x;
  }
  /// Names for each input dimension (for explanations and trees).
  virtual std::vector<std::string> dim_names() const;
  virtual std::string name() const = 0;

 private:
  std::uint64_t id_;
};

}  // namespace xplain::analyzer
