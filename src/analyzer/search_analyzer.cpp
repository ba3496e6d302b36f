#include "analyzer/search_analyzer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/logging.h"
#include "util/parallel.h"

namespace xplain::analyzer {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool excluded_point(const std::vector<Box>& excluded,
                    const std::vector<double>& x) {
  for (const auto& b : excluded)
    if (b.contains(x)) return true;
  return false;
}

// Gap with exclusion: excluded points score -inf so the search leaves them.
double score(const GapEvaluator& eval, const std::vector<Box>& excluded,
             const std::vector<double>& x) {
  if (excluded_point(excluded, x)) return -kInf;
  return eval.gap(x);
}

/// Equal bounds give equal Box::contains answers; NaN bounds never compare
/// equal, so a list holding one is never reused.
bool is_prefix(const std::vector<Box>& prefix, const std::vector<Box>& list) {
  if (prefix.size() > list.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i)
    if (prefix[i].lo != list[i].lo || prefix[i].hi != list[i].hi) return false;
  return true;
}

/// True when no point of `scored` lies in any box of excluded[first..]:
/// Box::contains (tol 0) fails for every such point exactly when some
/// dimension separates the boxes.  A box of another dimension contains no
/// point.
bool misses_all(const Box& scored, const std::vector<Box>& excluded,
                std::size_t first) {
  for (std::size_t k = first; k < excluded.size(); ++k) {
    const Box& b = excluded[k];
    if (b.lo.size() != scored.lo.size()) continue;
    bool separated = false;
    for (std::size_t i = 0; i < scored.lo.size() && !separated; ++i)
      separated = scored.hi[i] < b.lo[i] || scored.lo[i] > b.hi[i];
    if (!separated) return false;
  }
  return true;
}

void extend(Box& bbox, const std::vector<double>& x) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    bbox.lo[i] = std::min(bbox.lo[i], x[i]);
    bbox.hi[i] = std::max(bbox.hi[i], x[i]);
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::uint64_t hash_bits(const double* x, int n) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < n; ++i) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x[i], sizeof(b));
    h = (h ^ b) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

/// Exact memo of the scores one call's walks have taken, keyed by bit
/// pattern: open addressing over flat storage, sized for one walk (at most
/// max_iters + 1 entries).  When it fills, the earlier walks' entries make
/// room, so every point of the current walk stays in it.
class SearchAnalyzer::Memo {
 public:
  Memo(int dim, std::size_t capacity) : dim_(dim), capacity_(capacity) {
    points_.reserve(capacity * static_cast<std::size_t>(dim));
    scores_.reserve(capacity);
    std::size_t table = 4;
    while (table < 2 * capacity) table *= 2;  // load factor <= 1/2
    slots_.assign(table, -1);
  }

  void begin_walk() { walk_begin_ = scores_.size(); }

  /// The score stored for `x`, or nullptr.
  const double* find(const std::vector<double>& x) const {
    const std::int32_t k = slots_[probe(x.data())];
    return k >= 0 ? &scores_[k] : nullptr;
  }

  void insert(const std::vector<double>& x, double s) {
    if (scores_.size() == capacity_) drop_earlier_walks();
    if (scores_.size() == capacity_) return;  // one walk never gets here
    slots_[probe(x.data())] = static_cast<std::int32_t>(scores_.size());
    points_.insert(points_.end(), x.begin(), x.end());
    scores_.push_back(s);
  }

 private:
  /// The slot holding `x`, or the free slot where it would go.
  std::size_t probe(const double* x) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t h = hash_bits(x, dim_) & mask;
    while (slots_[h] >= 0 &&
           std::memcmp(&points_[static_cast<std::size_t>(slots_[h]) * dim_],
                       x, dim_ * sizeof(double)) != 0)
      h = (h + 1) & mask;
    return h;
  }

  void drop_earlier_walks() {
    const auto dropped = static_cast<std::ptrdiff_t>(walk_begin_);
    points_.erase(points_.begin(), points_.begin() + dropped * dim_);
    scores_.erase(scores_.begin(), scores_.begin() + dropped);
    walk_begin_ = 0;
    std::fill(slots_.begin(), slots_.end(), -1);
    for (std::size_t k = 0; k < scores_.size(); ++k)
      slots_[probe(&points_[k * dim_])] = static_cast<std::int32_t>(k);
  }

  int dim_;
  std::size_t capacity_;
  std::size_t walk_begin_ = 0;       // first entry of the current walk
  std::vector<double> points_;       // entry k at [k * dim_, (k+1) * dim_)
  std::vector<double> scores_;       // entry k's score
  std::vector<std::int32_t> slots_;  // entry index, -1 when free
};

std::optional<AdversarialExample> SearchAnalyzer::find_adversarial(
    const GapEvaluator& eval, double min_gap, const std::vector<Box>& excluded) {
  const Box box = eval.input_box();
  const int n = box.dim();
  util::Rng rng(opts_.seed);

  // The last call's state applies when it ran on this evaluator under a
  // prefix of this list; only the boxes past the prefix can change a
  // score.  Invalidated until this call completes, so a throwing gap()
  // cannot leave half-updated state behind.
  const bool reuse = eval_id_ == eval.id() && is_prefix(excluded_, excluded);
  const std::size_t first_added = reuse ? excluded_.size() : 0;
  eval_id_ = 0;
  if (!reuse) walks_.clear();

  AdversarialExample best;
  best.gap = -kInf;

  // Starting points: (1) the best few of a random presample, (2) structured
  // seeds (box-width fractions, where heuristic thresholds live), (3) random
  // restarts.
  std::vector<std::vector<double>> starts;
  std::vector<double> presample_start_scores;
  {
    // The points are drawn sequentially from the analyzer's stream (cheap,
    // and keeps the sample sequence identical to the single-threaded code);
    // only the expensive gap scoring fans out.  Scores land in slot-indexed
    // storage, so the chosen starts are bitwise identical for any worker
    // count.
    std::vector<std::pair<double, std::vector<double>>> pre;
    pre.reserve(opts_.presamples);
    for (int s = 0; s < opts_.presamples; ++s)
      pre.emplace_back(0.0, eval.quantize(rng.uniform_point(box.lo, box.hi)));
    std::vector<std::size_t> fresh;  // slots whose gap is not known yet
    for (std::size_t s = 0; s < pre.size(); ++s) {
      if (excluded_point(excluded, pre[s].second))
        pre[s].first = -kInf;
      else if (reuse)
        pre[s].first = presample_scores_[s];
      else
        fresh.push_back(s);
    }
    util::parallel_chunks(
        fresh.size(), opts_.workers,
        [&](std::size_t begin, std::size_t end, int) {
          for (std::size_t k = begin; k < end; ++k)
            pre[fresh[k]].first = eval.gap(pre[fresh[k]].second);
        });
    presample_scores_.resize(pre.size());
    for (std::size_t s = 0; s < pre.size(); ++s)
      presample_scores_[s] = pre[s].first;
    std::partial_sort(pre.begin(),
                      pre.begin() + std::min<std::size_t>(
                                        pre.size(), opts_.presample_starts),
                      pre.end(), [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    for (int s = 0;
         s < opts_.presample_starts && s < static_cast<int>(pre.size()); ++s) {
      starts.push_back(std::move(pre[s].second));
      presample_start_scores.push_back(pre[s].first);
    }
  }
  for (double fa : opts_.seed_fracs) {
    for (double fb : opts_.seed_fracs) {
      std::vector<double> x(n);
      for (int i = 0; i < n; ++i) {
        const double f = (i % 2 == 0) ? fa : fb;
        x[i] = box.lo[i] + f * (box.hi[i] - box.lo[i]);
      }
      starts.push_back(eval.quantize(x));
      if (static_cast<int>(starts.size()) >= 3 * opts_.restarts / 4) break;
    }
    if (static_cast<int>(starts.size()) >= 3 * opts_.restarts / 4) break;
  }
  while (static_cast<int>(starts.size()) < opts_.restarts)
    starts.push_back(eval.quantize(rng.uniform_point(box.lo, box.hi)));

  std::vector<Walk> walks;  // this call's records, one per distinct start
  walks.reserve(starts.size());
  Memo memo(n, static_cast<std::size_t>(std::max(opts_.max_iters, 0)) + 1);
  const auto record_for = [](const std::vector<Walk>& records,
                             const std::vector<double>& start) -> const Walk* {
    for (const Walk& w : records)
      if (same_bits(w.start, start)) return &w;
    return nullptr;
  };
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const Walk* done = record_for(walks, starts[k]);
    if (!done) {
      const Walk* last = record_for(walks_, starts[k]);
      if (last && misses_all(last->scored, excluded, first_added))
        walks.push_back(*last);
      else
        walks.push_back(walk(eval, box, excluded, starts[k],
                             k < presample_start_scores.size()
                                 ? &presample_start_scores[k]
                                 : nullptr,
                             memo));
      done = &walks.back();
    }
    if (done->score > best.gap) {
      best.gap = done->score;
      best.input = done->end;
    }
  }
  walks_.swap(walks);
  excluded_ = excluded;
  eval_id_ = eval.id();

  if (!std::isfinite(best.gap) || best.gap < min_gap) return std::nullopt;
  XPLAIN_DEBUG << "search analyzer: gap " << best.gap;
  return best;
}

SearchAnalyzer::Walk SearchAnalyzer::walk(const GapEvaluator& eval,
                                          const Box& box,
                                          const std::vector<Box>& excluded,
                                          const std::vector<double>& start,
                                          const double* start_score,
                                          Memo& memo) const {
  const int n = box.dim();
  Walk w;
  w.start = start;
  w.scored.lo.assign(n, kInf);
  w.scored.hi.assign(n, -kInf);
  memo.begin_walk();
  const auto score_at = [&](const std::vector<double>& x) {
    extend(w.scored, x);
    if (const double* known = memo.find(x)) return *known;  // a revisit
    const double s = score(eval, excluded, x);
    memo.insert(x, s);
    return s;
  };

  std::vector<double> x = start;
  // A presample start's score is already known: answer it as a revisit.
  if (start_score && !memo.find(x)) memo.insert(x, *start_score);
  double fx = score_at(x);
  double step = opts_.init_step_frac;
  int iters = 0;
  while (step >= opts_.min_step_frac && iters < opts_.max_iters) {
    bool improved = false;
    for (int i = 0; i < n && iters < opts_.max_iters; ++i) {
      const double width = box.hi[i] - box.lo[i];
      if (width <= 0) continue;
      for (double dir : {+1.0, -1.0}) {
        std::vector<double> y = x;
        y[i] = std::clamp(y[i] + dir * step * width, box.lo[i], box.hi[i]);
        y = eval.quantize(y);
        if (y[i] == x[i]) continue;
        ++iters;
        const double fy = score_at(y);
        if (fy > fx + 1e-12) {
          x = std::move(y);
          fx = fy;
          improved = true;
          break;
        }
      }
    }
    if (!improved) step *= 0.5;
  }
  w.end = std::move(x);
  w.score = fx;
  return w;
}

std::optional<AdversarialExample> SearchAnalyzer::random_baseline(
    const GapEvaluator& eval, double min_gap, const std::vector<Box>& excluded,
    int samples, std::uint64_t seed) {
  const Box box = eval.input_box();
  util::Rng rng(seed);
  AdversarialExample best;
  best.gap = -kInf;
  for (int s = 0; s < samples; ++s) {
    auto x = eval.quantize(rng.uniform_point(box.lo, box.hi));
    const double g = score(eval, excluded, x);
    if (g > best.gap) {
      best.gap = g;
      best.input = std::move(x);
    }
  }
  if (!std::isfinite(best.gap) || best.gap < min_gap) return std::nullopt;
  return best;
}

}  // namespace xplain::analyzer
