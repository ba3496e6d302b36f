#include "vbp/heuristics.h"

#include <limits>

#include "vbp/packing.h"

namespace xplain::vbp {

const char* to_string(VbpHeuristic h) {
  switch (h) {
    case VbpHeuristic::kFirstFit: return "first_fit";
    case VbpHeuristic::kBestFit: return "best_fit";
    case VbpHeuristic::kFirstFitDecreasing: return "first_fit_decreasing";
    case VbpHeuristic::kNextFit: return "next_fit";
  }
  return "?";
}

namespace detail {

void sort_decreasing(const std::vector<double>& key, std::vector<int>& order) {
  const int n = static_cast<int>(key.size());
  order.resize(n);
  for (int i = 0; i < n; ++i) {
    int j = i;
    for (; j > 0 && key[i] > key[order[j - 1]]; --j) order[j] = order[j - 1];
    order[j] = i;
  }
}

int pack(VbpHeuristic h, const VbpInstance& inst,
         const std::vector<double>& sizes, PackScratch& s, Packing* out) {
  const int n = inst.num_balls;
  const int dims = inst.dims;
  const bool best = h == VbpHeuristic::kBestFit;
  const bool next = h == VbpHeuristic::kNextFit;
  const bool decreasing = h == VbpHeuristic::kFirstFitDecreasing;
  if (decreasing) {
    // First-fit after sorting balls by decreasing total size.
    s.key.resize(n);
    for (int b = 0; b < n; ++b) {
      double total = 0.0;
      for (int t = 0; t < dims; ++t) total += inst.size(sizes, b, t);
      s.key[b] = total;
    }
    sort_decreasing(s.key, s.order);
  }
  s.load.assign(static_cast<std::size_t>(inst.num_bins) * dims, 0.0);
  // "Opened" is assignment-based, not load-based: a zero-size ball occupies
  // a bin without adding load, and must not re-open it for the next ball.
  s.opened.assign(inst.num_bins, 0);
  if (out) {
    out->assignment.assign(n, -1);
    out->complete = true;
  }
  const auto fits = [&](int bin, int ball) {
    for (int t = 0; t < dims; ++t)
      if (s.load[bin * dims + t] + inst.size(sizes, ball, t) >
          inst.capacity + 1e-12)
        return false;
    return true;
  };
  const auto residual_total = [&](int bin) {
    double r = 0.0;
    for (int t = 0; t < dims; ++t) r += inst.capacity - s.load[bin * dims + t];
    return r;
  };
  int used = 0;
  int first_open = 0;  // next-fit never looks back before its current bin
  for (int k = 0; k < n; ++k) {
    const int ball = decreasing ? s.order[k] : k;
    int chosen = -1;
    double best_residual = std::numeric_limits<double>::infinity();
    for (int j = first_open; j < inst.num_bins; ++j) {
      if (!fits(j, ball)) continue;
      if (!best) {
        chosen = j;
        break;
      }
      // Best-fit: prefer the tightest *opened* feasible bin; open a new bin
      // only when no opened bin fits.
      const double score = s.opened[j] ? residual_total(j) : 1e9 + j;
      if (score < best_residual) {
        best_residual = score;
        chosen = j;
      }
    }
    if (next) first_open = chosen < 0 ? inst.num_bins : chosen;
    if (chosen < 0) {
      if (out) out->complete = false;
      continue;
    }
    if (!s.opened[chosen]) {
      s.opened[chosen] = 1;
      ++used;
    }
    for (int t = 0; t < dims; ++t)
      s.load[chosen * dims + t] += inst.size(sizes, ball, t);
    if (out) out->assignment[ball] = chosen;
  }
  if (out) out->bins_used = used;
  return used;
}

}  // namespace detail

Packing run_heuristic(VbpHeuristic h, const VbpInstance& inst,
                      const std::vector<double>& sizes) {
  detail::PackScratch s;
  Packing pk;
  detail::pack(h, inst, sizes, s, &pk);
  return pk;
}

Packing first_fit(const VbpInstance& inst, const std::vector<double>& sizes) {
  return run_heuristic(VbpHeuristic::kFirstFit, inst, sizes);
}

Packing best_fit(const VbpInstance& inst, const std::vector<double>& sizes) {
  return run_heuristic(VbpHeuristic::kBestFit, inst, sizes);
}

Packing first_fit_decreasing(const VbpInstance& inst,
                             const std::vector<double>& sizes) {
  return run_heuristic(VbpHeuristic::kFirstFitDecreasing, inst, sizes);
}

Packing next_fit(const VbpInstance& inst, const std::vector<double>& sizes) {
  return run_heuristic(VbpHeuristic::kNextFit, inst, sizes);
}

}  // namespace xplain::vbp
