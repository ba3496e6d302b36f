#include "vbp/optimal.h"

#include <algorithm>
#include <cmath>

#include "model/model.h"
#include "vbp/packing.h"

namespace xplain::vbp {

namespace {

// Buffers for the 1-D search and the gap, reused per thread by vbp_gap.
struct Scratch {
  std::vector<double> sizes;      // vbp_gap: the clamped sizes
  detail::PackScratch pack;       // heuristic and FFD runs
  std::vector<int> order;         // balls by decreasing size
  std::vector<double> sorted;     // sizes in that order
  std::vector<double> suffix;     // suffix[i] = sum of sorted[i..)
  std::vector<double> load;       // open bin loads
  std::vector<int> assign;        // bin of each sorted position, on the path
};

// DFS bin-completion search for 1-D packing, on a Scratch's buffers.
struct Bnb {
  const double* sizes;     // sorted descending
  const int* order;        // original indices, same sort
  int n;
  double capacity;
  const double* suffix;
  double* load;
  int* assign;
  int* best_assign;        // by original index; null when counting only
  int open = 0;            // open bins: load[0..open)
  double open_residual = 0.0;  // sum over open bins of (capacity-load)
  int best = 0;

  void dfs(int i) {
    if (open >= best) return;  // can only grow
    if (i == n) {
      best = open;
      if (best_assign)
        for (int k = 0; k < n; ++k) best_assign[order[k]] = assign[k];
      return;
    }
    // Lower bound: open bins + extra bins forced by remaining volume beyond
    // the open bins' residual capacity.  Suffix sums make it O(1); the
    // open-bin residual is maintained incrementally the same way.
    const double residual = open_residual;
    const double rem = suffix[i];
    const int lb = open + std::max(0, static_cast<int>(std::ceil(
                                          (rem - residual) / capacity - 1e-12)));
    if (lb >= best) return;

    // Try existing bins with distinct loads (equal-load bins are symmetric).
    double last_load = -1.0;
    for (int j = 0; j < open; ++j) {
      if (load[j] == last_load) continue;
      last_load = load[j];
      if (load[j] + sizes[i] > capacity + 1e-12) continue;
      load[j] += sizes[i];
      open_residual -= sizes[i];
      assign[i] = j;
      dfs(i + 1);
      open_residual += sizes[i];
      load[j] -= sizes[i];
    }
    // Open a new bin.
    load[open++] = sizes[i];
    open_residual += capacity - sizes[i];
    assign[i] = open - 1;
    dfs(i + 1);
    open_residual -= capacity - sizes[i];
    --open;
  }
};

// Fewest bins for 1-D `sizes`.  First-fit-decreasing gives the initial
// incumbent (upper bound) and, with `out`, the packing the search
// overwrites each time it improves on it.
int bnb_1d(const VbpInstance& inst, const std::vector<double>& sizes,
           Scratch& s, Packing* out) {
  const int n = inst.num_balls;
  VbpInstance wide = inst;
  wide.num_bins = std::max(n, 1);
  const int ffd = detail::pack(VbpHeuristic::kFirstFitDecreasing, wide, sizes,
                               s.pack, out);
  detail::sort_decreasing(sizes, s.order);  // dims == 1: one size a ball
  s.sorted.resize(n);
  for (int i = 0; i < n; ++i) s.sorted[i] = sizes[s.order[i]];
  s.suffix.assign(n + 1, 0.0);
  for (int i = n; i > 0; --i) s.suffix[i - 1] = s.suffix[i] + s.sorted[i - 1];
  s.load.resize(n);
  s.assign.resize(n);

  Bnb bnb{s.sorted.data(), s.order.data(), n, inst.capacity, s.suffix.data(),
          s.load.data(), s.assign.data(),
          out ? out->assignment.data() : nullptr};
  bnb.best = ffd + 1;  // strict improvement target
  bnb.dfs(0);
  return std::min(bnb.best, ffd);
}

}  // namespace

OptimalResult optimal_packing_bnb_1d(const VbpInstance& inst,
                                     const std::vector<double>& sizes) {
  OptimalResult res;
  Scratch s;
  res.bins = bnb_1d(inst, sizes, s, &res.packing);
  res.packing.bins_used = res.bins;
  res.packing.complete = true;
  return res;
}

OptimalResult optimal_packing_milp(const VbpInstance& inst,
                                   const std::vector<double>& sizes) {
  using model::LinExpr;
  using model::Var;
  model::Model m;
  const int max_bins = inst.num_balls;  // never need more than one per ball
  // x[b][j]: ball b in bin j (restricted to j <= b: ball b opens at most
  // bin b — classic symmetry breaking).
  std::vector<std::vector<Var>> x(inst.num_balls);
  std::vector<Var> used(max_bins);
  for (int j = 0; j < max_bins; ++j) used[j] = m.add_binary();
  for (int b = 0; b < inst.num_balls; ++b) {
    LinExpr one;
    for (int j = 0; j <= b && j < max_bins; ++j) {
      Var v = m.add_binary();
      x[b].push_back(v);
      one += LinExpr(v);
      m.add(LinExpr(v) <= LinExpr(used[j]));
    }
    m.add(one == LinExpr(1.0));
  }
  for (int j = 0; j < max_bins; ++j) {
    for (int t = 0; t < inst.dims; ++t) {
      LinExpr lhs;
      for (int b = j; b < inst.num_balls; ++b)
        lhs += inst.size(sizes, b, t) * LinExpr(x[b][j]);
      m.add(lhs <= inst.capacity * LinExpr(used[j]));
    }
    if (j + 1 < max_bins)
      m.add(LinExpr(used[j + 1]) <= LinExpr(used[j]));  // ordered usage
  }
  LinExpr total;
  for (int j = 0; j < max_bins; ++j) total += LinExpr(used[j]);
  m.set_objective(solver::Sense::kMinimize, total);

  solver::MilpOptions opts;
  opts.time_limit_s = 60.0;
  auto r = m.solve(opts);
  OptimalResult res;
  res.proven = (r.status == solver::Status::kOptimal);
  res.bins = static_cast<int>(std::lround(r.obj));
  res.packing.assignment.assign(inst.num_balls, -1);
  if (!r.x.empty()) {
    for (int b = 0; b < inst.num_balls; ++b)
      for (std::size_t j = 0; j < x[b].size(); ++j)
        if (r.x[x[b][j].index] > 0.5)
          res.packing.assignment[b] = static_cast<int>(j);
  }
  res.packing.bins_used = res.bins;
  return res;
}

OptimalResult optimal_packing(const VbpInstance& inst,
                              const std::vector<double>& sizes) {
  if (inst.dims == 1) return optimal_packing_bnb_1d(inst, sizes);
  return optimal_packing_milp(inst, sizes);
}

double vbp_gap(const VbpInstance& inst, const std::vector<double>& sizes,
               VbpHeuristic h) {
  // Per-thread scratch: a warm call allocates nothing (the MILP optimum of
  // dims > 1 aside).
  thread_local Scratch s;
  // Clamp sizes into [0, capacity] so a packing always exists.
  s.sizes.assign(sizes.begin(), sizes.end());
  for (double& v : s.sizes) v = std::clamp(v, 0.0, inst.capacity);
  VbpInstance wide = inst;
  wide.num_bins = std::max(inst.num_balls, 1);
  const int heur = detail::pack(h, wide, s.sizes, s.pack, nullptr);
  const int opt = inst.dims == 1 ? bnb_1d(wide, s.sizes, s, nullptr)
                                 : optimal_packing_milp(wide, s.sizes).bins;
  return static_cast<double>(heur - opt);
}

}  // namespace xplain::vbp
