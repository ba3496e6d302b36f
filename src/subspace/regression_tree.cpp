#include "subspace/regression_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <sstream>

namespace xplain::subspace {

namespace {

struct SplitChoice {
  int feature = -1;
  double threshold = 0.0;
  double sse_after = 0.0;
};

// Sum of squared deviations from the mean of `gaps`: one pass for the sum,
// one for the deviations.
double sse_of(const std::vector<double>& gaps) {
  if (gaps.empty()) return 0.0;
  double m = 0.0;
  for (double g : gaps) m += g;
  m /= static_cast<double>(gaps.size());
  double sse = 0.0;
  for (double g : gaps) sse += (g - m) * (g - m);
  return sse;
}

// sse_of(l) + sse_of(r) for the cut col <= t, where l and r would hold the
// gaps on each side in items order; nothing when a side has fewer than
// `min_leaf`.  Two passes over the gathered columns, sums and counts and
// then squared deviations, make the same additions and multiplications in
// the same order, so the score is bitwise the lists'.
std::optional<double> cut_sse(const std::vector<double>& gaps,
                              const std::vector<double>& col, double t,
                              int min_leaf) {
  double sum_l = 0.0, sum_r = 0.0;
  std::size_t n_l = 0;
  for (std::size_t k = 0; k < col.size(); ++k) {
    if (col[k] <= t) {
      sum_l += gaps[k];
      ++n_l;
    } else {
      sum_r += gaps[k];
    }
  }
  const std::size_t n_r = col.size() - n_l;
  if (static_cast<int>(n_l) < min_leaf || static_cast<int>(n_r) < min_leaf)
    return std::nullopt;
  const double m_l = n_l ? sum_l / static_cast<double>(n_l) : 0.0;
  const double m_r = n_r ? sum_r / static_cast<double>(n_r) : 0.0;
  double sse_l = 0.0, sse_r = 0.0;
  for (std::size_t k = 0; k < col.size(); ++k) {
    if (col[k] <= t)
      sse_l += (gaps[k] - m_l) * (gaps[k] - m_l);
    else
      sse_r += (gaps[k] - m_r) * (gaps[k] - m_r);
  }
  return sse_l + sse_r;
}

}  // namespace

RegressionTree fit_regression_tree(const std::vector<LabeledSample>& samples,
                                   const TreeOptions& opts) {
  RegressionTree tree;
  if (samples.empty()) {
    tree.nodes_.push_back({});
    return tree;
  }
  tree.dim_ = static_cast<int>(samples[0].x.size());

  std::vector<const LabeledSample*> all;
  all.reserve(samples.size());
  for (const auto& s : samples) all.push_back(&s);

  // One node's gathered gaps and feature column, and the column's distinct
  // values.  A node is done with them before its children start, so the
  // whole fit shares one set.
  std::vector<double> gaps, col, vals;
  std::function<int(std::vector<const LabeledSample*>, int)> build =
      [&](std::vector<const LabeledSample*> items, int depth) -> int {
    const std::size_t n = items.size();
    RegressionTree::Node node;
    node.count = static_cast<int>(n);
    double mean = 0.0;
    for (auto* s : items) mean += s->gap;
    node.value = mean / std::max<std::size_t>(n, 1);

    const int id = static_cast<int>(tree.nodes_.size());
    tree.nodes_.push_back(node);

    if (depth >= opts.max_depth ||
        static_cast<int>(n) < 2 * opts.min_samples_leaf)
      return id;

    gaps.resize(n);
    for (std::size_t k = 0; k < n; ++k) gaps[k] = items[k]->gap;
    const double parent_sse = sse_of(gaps);
    if (parent_sse <= 1e-12) return id;  // pure leaf

    SplitChoice best;
    best.sse_after = parent_sse - 1e-9;  // must strictly improve
    col.resize(n);
    for (int f = 0; f < tree.dim_; ++f) {
      for (std::size_t k = 0; k < n; ++k) col[k] = items[k]->x[f];
      vals.assign(col.begin(), col.end());
      std::sort(vals.begin(), vals.end());
      vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
      if (vals.size() < 2) continue;
      // Candidate thresholds: midpoints, thinned to max_thresholds.
      const std::size_t stride =
          std::max<std::size_t>(1, (vals.size() - 1) / opts.max_thresholds);
      for (std::size_t i = 0; i + 1 < vals.size(); i += stride) {
        const double t = 0.5 * (vals[i] + vals[i + 1]);
        const std::optional<double> sse =
            cut_sse(gaps, col, t, opts.min_samples_leaf);
        if (sse && *sse < best.sse_after) {
          best.sse_after = *sse;
          best.feature = f;
          best.threshold = t;
        }
      }
    }
    if (best.feature < 0) return id;

    std::vector<const LabeledSample*> l, r;
    for (auto* s : items)
      (s->x[best.feature] <= best.threshold ? l : r).push_back(s);
    tree.nodes_[id].feature = best.feature;
    tree.nodes_[id].threshold = best.threshold;
    const int left = build(std::move(l), depth + 1);
    tree.nodes_[id].left = left;
    const int right = build(std::move(r), depth + 1);
    tree.nodes_[id].right = right;
    return id;
  };

  build(std::move(all), 0);
  return tree;
}

int RegressionTree::leaf_of(const std::vector<double>& x) const {
  int id = 0;
  while (nodes_[id].feature >= 0)
    id = (x[nodes_[id].feature] <= nodes_[id].threshold) ? nodes_[id].left
                                                         : nodes_[id].right;
  return id;
}

double RegressionTree::predict(const std::vector<double>& x) const {
  return nodes_[leaf_of(x)].value;
}

int RegressionTree::depth() const {
  std::function<int(int)> go = [&](int id) -> int {
    if (nodes_[id].feature < 0) return 0;
    return 1 + std::max(go(nodes_[id].left), go(nodes_[id].right));
  };
  return nodes_.empty() ? 0 : go(0);
}

std::vector<Halfspace> RegressionTree::path_predicates(
    const std::vector<double>& x) const {
  std::vector<Halfspace> preds;
  int id = 0;
  while (nodes_[id].feature >= 0) {
    const auto& n = nodes_[id];
    Halfspace h;
    h.a.assign(dim_, 0.0);
    if (x[n.feature] <= n.threshold) {
      h.a[n.feature] = 1.0;   //  x_f <= t
      h.b = n.threshold;
      id = n.left;
    } else {
      h.a[n.feature] = -1.0;  //  x_f >= t  ->  -x_f <= -t
      h.b = -n.threshold;
      id = n.right;
    }
    preds.push_back(std::move(h));
  }
  return preds;
}

std::string RegressionTree::to_string(
    const std::vector<std::string>& dim_names) const {
  std::ostringstream os;
  std::function<void(int, int)> go = [&](int id, int indent) {
    const auto& n = nodes_[id];
    os << std::string(indent * 2, ' ');
    if (n.feature < 0) {
      os << "leaf: gap=" << n.value << " (n=" << n.count << ")\n";
      return;
    }
    os << dim_names[n.feature] << " <= " << n.threshold << "?\n";
    go(n.left, indent + 1);
    os << std::string(indent * 2, ' ') << "else\n";
    go(n.right, indent + 1);
  };
  if (!nodes_.empty()) go(0, 0);
  return os.str();
}

}  // namespace xplain::subspace
