// Derivative-free search analyzer.
//
// MetaOpt's exact bi-level rewriting does not scale past small instances,
// and the paper notes plain random search "may not even find an adversarial
// point" — this analyzer sits in between: multi-start coordinate pattern
// search (adaptive step halving) over the evaluator's quantized input box,
// seeded from structured corners (threshold values, capacity fractions)
// plus random restarts.  It is the scalable backend; the MILP analyzers
// cross-validate it on small instances.
//
// Cross-call reuse.  The subspace generator calls find_adversarial in a
// find -> expand -> exclude -> repeat loop on one evaluator, each call's
// exclusion list being the previous one plus one box.  Every call seeds its
// stream from the same SearchOptions::seed, so it redraws the same presample
// and walks from the same structured and random starts.  An instance keeps
// what its last call learned and reuses it when the next call runs on the
// same evaluator (GapEvaluator::id()) and the previous list is a prefix of
// the new one.  Gaps are pure functions of the input (GapEvaluator's
// contract), and a score can only change if its point lies in a box added
// since, so every call returns the bitwise-identical example while scoring
// fewer points:
//   - Presample: the same points are redrawn; a point outside every
//     excluded box takes its score from the previous call (it was outside
//     the prefix then too, so that score is its gap); the rest score -inf.
//   - Walks: each walk records its start, the bounding box of every point
//     it scored, and its end point and score.  A walk is a deterministic
//     function of its start and of those scores, so a later walk from a
//     bitwise-equal start reuses the record when the bounding box misses
//     every box added since it ran (for some dimension, bbox.hi < box.lo
//     or bbox.lo > box.hi: Box::contains with tol 0 then holds for none of
//     its points).  A start repeated within one call reuses the same way.
//   - Revisits: an exact memo of the points scored so far (keyed by bit
//     pattern) answers a walk's step back onto one of them without calling
//     gap.  It is sized for one walk and keeps the earlier walks of the
//     same call while room remains, so walks that meet share scores too;
//     a read from the memo counts as scoring the point for that walk's
//     bounding box.  A presample start's own score comes from the presample.
// Memory is bounded by the options, never by the number of calls or gap
// calls: between calls, the presample scores, one record per start, and a
// copy of the last exclusion list (the caller's own input, kept for the
// exact prefix check); during a call, also a memo sized for one walk (at
// most max_iters + 1 points).  One instance must
// not run two calls concurrently; no caller does (each job builds its own).
#pragma once

#include <cstdint>

#include "analyzer/analyzer.h"
#include "util/random.h"

namespace xplain::analyzer {

struct SearchOptions {
  int restarts = 24;          // multi-start count
  int max_iters = 400;        // pattern-search evaluations per start
  double init_step_frac = 0.25;  // initial step as a fraction of box width
  double min_step_frac = 1e-3;
  std::uint64_t seed = 1234;
  /// Structured seed values tried in every dimension (fractions of the box
  /// width) in addition to random starts; heuristic thresholds live at such
  /// fractions, which is where DP/FF break.
  std::vector<double> seed_fracs = {0.01, 0.26, 0.49, 0.5, 0.51, 0.99};
  /// Random presample whose best points become extra starts — this makes
  /// the pattern search dominate the pure-random baseline by construction.
  int presamples = 300;
  int presample_starts = 4;
  /// Worker threads for the presample scoring loop; <= 0 = one per
  /// hardware thread.  Presample points are drawn sequentially from the
  /// analyzer's stream (identical to the single-threaded sequence); only
  /// the gap scoring fans out, into slot-indexed storage: bitwise
  /// deterministic for any worker count.
  int workers = 1;
};

class SearchAnalyzer : public HeuristicAnalyzer {
 public:
  explicit SearchAnalyzer(SearchOptions opts = {}) : opts_(opts) {}

  std::optional<AdversarialExample> find_adversarial(
      const GapEvaluator& eval, double min_gap,
      const std::vector<Box>& excluded) override;

  std::string name() const override { return "pattern_search"; }

  /// Pure random sampling baseline (the strawman the paper dismisses);
  /// exposed for the ablation bench.
  static std::optional<AdversarialExample> random_baseline(
      const GapEvaluator& eval, double min_gap, const std::vector<Box>& excluded,
      int samples, std::uint64_t seed);

 private:
  /// One finished pattern-search walk.
  struct Walk {
    std::vector<double> start;
    Box scored;  // bounding box of every point it scored (lo > hi if none)
    std::vector<double> end;
    double score = 0.0;
  };

  class Memo;  // one call's memo of scored points (search_analyzer.cpp)

  Walk walk(const GapEvaluator& eval, const Box& box,
            const std::vector<Box>& excluded, const std::vector<double>& start,
            const double* start_score, Memo& memo) const;

  SearchOptions opts_;
  // Reuse state: what the last call learned, valid for evaluator eval_id_
  // (0 = nothing) under the exclusion list excluded_.
  std::uint64_t eval_id_ = 0;
  std::vector<Box> excluded_;
  std::vector<double> presample_scores_;
  std::vector<Walk> walks_;
};

}  // namespace xplain::analyzer
