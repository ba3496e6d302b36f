#include "solver/milp.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <vector>

#include "solver/presolve.h"
#include "util/logging.h"
#include "util/timer.h"

namespace xplain::solver {

namespace {

// An LP value within this of an integer counts as integral.
constexpr double kIntTol = 1e-7;
// Absolute optimality gap: a node whose bound is not below the incumbent by
// more than this is pruned.
constexpr double kGapTol = 1e-9;

// Branch decisions live in an arena: each entry holds ONE new bound and a
// link to its parent, so siblings share their common prefix instead of each
// carrying a full copy of the path (the old shared_ptr<Node> scheme copied
// the whole override vector into both children at every branch).
struct BranchArena {
  struct Entry {
    int parent;  // arena index, -1 for the root
    int col;
    double lo, hi;
  };
  std::vector<Entry> pool;

  int add(int parent, int col, double lo, double hi) {
    pool.push_back({parent, col, lo, hi});
    return static_cast<int>(pool.size()) - 1;
  }

  /// Applies the chain of bound intersections ending at `id` to `sub`.
  void apply(int id, LpProblem& sub) const {
    for (; id >= 0; id = pool[id].parent) {
      const Entry& e = pool[id];
      sub.set_bounds(e.col, std::max(e.lo, sub.lo(e.col)),
                     std::min(e.hi, sub.hi(e.col)));
    }
  }
};

struct OpenNode {
  double parent_bound;  // LP bound inherited from the parent (min-sense)
  int depth = 0;
  int branch = -1;  // arena index of the last bound decision
  // The parent's optimal basis; both children share one copy and the LP
  // re-solve repairs it with dual simplex instead of starting cold.
  std::shared_ptr<const Basis> warm;
};

struct NodeCompare {
  // Best-bound first: smaller parent bound (min sense) wins; deeper node
  // breaks ties so plunges finish.
  bool operator()(const OpenNode& a, const OpenNode& b) const {
    if (a.parent_bound != b.parent_bound)
      return a.parent_bound > b.parent_bound;
    return a.depth < b.depth;
  }
};

// Most fractional integer column, or -1 if integral.
int pick_branch_col(const LpProblem& p, const std::vector<double>& x) {
  int best = -1;
  double best_frac_dist = kIntTol;
  for (int j = 0; j < p.num_cols(); ++j) {
    if (!p.integer(j)) continue;
    const double f = x[j] - std::floor(x[j]);
    const double dist = std::min(f, 1.0 - f);
    if (dist > best_frac_dist) {
      best_frac_dist = dist;
      best = j;
    }
  }
  return best;
}

}  // namespace

MilpResult solve_milp(const LpProblem& root, const MilpOptions& opts) {
  MilpResult res;
  util::Timer timer;

  // Work on a min-sense copy so bounding logic has one orientation.
  LpProblem p = root;
  const double flip = (root.sense == Sense::kMaximize) ? -1.0 : 1.0;
  if (root.sense == Sense::kMaximize) {
    p.sense = Sense::kMinimize;
    for (int j = 0; j < p.num_cols(); ++j) p.set_obj(j, -p.obj(j));
  }

  double incumbent_obj = kInf;  // min-sense
  std::vector<double> incumbent_x;

  auto try_incumbent = [&](const std::vector<double>& x, double obj) {
    if (obj >= incumbent_obj - 1e-12) return;
    // Snap integer columns first, then verify the *snapped* point: a raw LP
    // point can look integral within tolerance while its rounding violates a
    // tight big-M row.
    std::vector<double> snapped = x;
    for (int j = 0; j < p.num_cols(); ++j)
      if (p.integer(j)) snapped[j] = std::round(snapped[j]);
    if (!root.feasible(snapped, 1e-6)) return;
    incumbent_obj = obj;
    incumbent_x = std::move(snapped);
    XPLAIN_DEBUG << "milp: incumbent " << flip * obj;
  };

  // Rounding heuristic: snap integer columns of an LP point and re-check.
  auto round_heuristic = [&](const std::vector<double>& x) {
    std::vector<double> r = x;
    for (int j = 0; j < p.num_cols(); ++j)
      if (p.integer(j)) r[j] = std::round(r[j]);
    if (p.feasible(r, 1e-7)) try_incumbent(r, p.eval_obj(r));
  };

  BranchArena arena;
  std::priority_queue<OpenNode, std::vector<OpenNode>, NodeCompare> open;
  open.push(OpenNode{-kInf, 0, -1, nullptr});

  // One scratch problem for every node: rows never change down the tree, so
  // re-solving a node is "restore root bounds, apply the branch chain,
  // propagate" — no LpProblem copy, and the LP warm-starts from the parent
  // basis instead of rebuilding its factorization from scratch.
  LpProblem sub = p;
  const std::vector<double> root_lo = p.lower_bounds();
  const std::vector<double> root_hi = p.upper_bounds();
  // Node LPs need the basis (for the children's warm starts) but never the
  // row duals; skip that extraction on every node.
  SimplexOptions node_lp = opts.lp;
  node_lp.want_duals = false;

  bool hit_limit = false;

  while (!open.empty()) {
    if (res.nodes >= opts.max_nodes || timer.seconds() > opts.time_limit_s) {
      hit_limit = true;
      break;
    }
    OpenNode node = open.top();
    open.pop();
    if (node.parent_bound >= incumbent_obj - kGapTol) continue;  // pruned

    // Apply node bounds, then propagate them through the constraints: on
    // big-M indicator models this fixes most binaries without an LP.
    sub.set_all_bounds(root_lo, root_hi);
    arena.apply(node.branch, sub);
    if (!propagate_bounds(sub).feasible) {
      ++res.nodes;
      continue;
    }

    LpSolution lp = solve_lp(sub, node_lp, node.warm.get());
    ++res.nodes;
    ++res.lp_solves;
    res.lp_iterations += lp.iterations;
    if (lp.status == Status::kInfeasible) continue;
    if (lp.status == Status::kUnbounded) {
      // An unbounded relaxation at the root means the MILP is unbounded (or
      // its integer restriction is; either way we cannot bound it).
      if (node.depth == 0 && !std::isfinite(incumbent_obj)) {
        res.status = Status::kUnbounded;
        return res;
      }
      continue;
    }
    if (lp.status != Status::kOptimal) {
      hit_limit = true;
      continue;
    }
    const double bound = lp.obj;
    if (bound >= incumbent_obj - kGapTol) continue;

    const int bc = pick_branch_col(p, lp.x);
    if (bc < 0) {
      try_incumbent(lp.x, bound);
      continue;
    }
    round_heuristic(lp.x);

    const double v = lp.x[bc];
    auto warm = std::make_shared<const Basis>(std::move(lp.basis));
    open.push(OpenNode{bound, node.depth + 1,
                       arena.add(node.branch, bc, -kInf, std::floor(v)),
                       warm});
    open.push(OpenNode{bound, node.depth + 1,
                       arena.add(node.branch, bc, std::ceil(v), kInf),
                       std::move(warm)});
  }

  const bool have_incumbent = std::isfinite(incumbent_obj);
  if (hit_limit) {
    res.status = have_incumbent ? Status::kLimit : Status::kError;
  } else {
    res.status = have_incumbent ? Status::kOptimal : Status::kInfeasible;
  }
  if (have_incumbent) {
    res.obj = flip * incumbent_obj;
    res.x = std::move(incumbent_x);
  }
  // Proven bound: min over remaining open nodes (or the incumbent if solved).
  double open_bound = incumbent_obj;
  if (hit_limit && !open.empty())
    open_bound = std::min(open_bound, open.top().parent_bound);
  res.best_bound = flip * open_bound;
  return res;
}

}  // namespace xplain::solver
