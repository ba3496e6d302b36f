#include "solver/presolve.h"

#include <cmath>
#include <vector>

namespace xplain::solver {

namespace {

// Sweeps before propagate_bounds gives up on reaching a fixpoint.
constexpr int kMaxRounds = 50;
// A bound moves only when it tightens by more than this.
constexpr double kTol = 1e-9;

// One propagation sweep; returns -1 on proven infeasibility, else the
// number of tightenings.
int sweep(LpProblem& p) {
  int tightened = 0;
  const double kBig = 1e17;  // treat anything beyond as infinite

  for (const auto& row : p.rows()) {
    // Row activity bounds.
    double min_act = 0.0, max_act = 0.0;
    int min_inf = 0, max_inf = 0;  // count of infinite contributions
    for (const auto& [j, a] : row.coef) {
      const double lo = p.lo(j), hi = p.hi(j);
      const double cmin = a > 0 ? a * lo : a * hi;
      const double cmax = a > 0 ? a * hi : a * lo;
      if (cmin <= -kBig || std::isinf(cmin))
        ++min_inf;
      else
        min_act += cmin;
      if (cmax >= kBig || std::isinf(cmax))
        ++max_inf;
      else
        max_act += cmax;
    }

    const bool need_upper =
        row.sense == RowSense::kLe || row.sense == RowSense::kEq;
    const bool need_lower =
        row.sense == RowSense::kGe || row.sense == RowSense::kEq;

    // Infeasibility of the row itself.
    const double feas_tol = 1e-7 * (1.0 + std::abs(row.rhs));
    if (need_upper && min_inf == 0 && min_act > row.rhs + feas_tol) return -1;
    if (need_lower && max_inf == 0 && max_act < row.rhs - feas_tol) return -1;

    // Implied per-column bounds.
    for (const auto& [j, a] : row.coef) {
      if (a == 0.0) continue;
      const double lo = p.lo(j), hi = p.hi(j);
      const double cmin = a > 0 ? a * lo : a * hi;
      const double cmax = a > 0 ? a * hi : a * lo;

      // activity bounds excluding column j (only valid if j was the sole
      // infinite contributor or there were none).
      const bool cmin_inf = std::isinf(cmin) || cmin <= -kBig;
      const bool cmax_inf = std::isinf(cmax) || cmax >= kBig;
      const bool min_wo_ok = (min_inf - (cmin_inf ? 1 : 0)) == 0;
      const bool max_wo_ok = (max_inf - (cmax_inf ? 1 : 0)) == 0;
      const double min_wo = min_act - (cmin_inf ? 0.0 : cmin);
      const double max_wo = max_act - (cmax_inf ? 0.0 : cmax);

      double new_lo = lo, new_hi = hi;
      const double slack = 1e-9 * (1.0 + std::abs(row.rhs));
      if (need_upper && min_wo_ok) {
        // a_j * x_j <= rhs - min_wo
        const double bound = (row.rhs - min_wo) / a + (a > 0 ? slack : -slack);
        if (a > 0)
          new_hi = std::min(new_hi, bound);
        else
          new_lo = std::max(new_lo, bound);
      }
      if (need_lower && max_wo_ok) {
        // a_j * x_j >= rhs - max_wo
        const double bound = (row.rhs - max_wo) / a + (a > 0 ? -slack : slack);
        if (a > 0)
          new_lo = std::max(new_lo, bound);
        else
          new_hi = std::min(new_hi, bound);
      }
      if (p.integer(j)) {
        new_lo = std::ceil(new_lo - 1e-6);
        new_hi = std::floor(new_hi + 1e-6);
      }
      if (new_lo > new_hi + 1e-9) return -1;
      if (new_lo > lo + kTol || new_hi < hi - kTol) {
        p.set_bounds(j, std::max(lo, new_lo), std::min(hi, new_hi));
        ++tightened;
      }
    }
  }
  return tightened;
}

}  // namespace

PropagateResult propagate_bounds(LpProblem& p) {
  PropagateResult res;
  for (int r = 0; r < kMaxRounds; ++r) {
    ++res.rounds;
    const int t = sweep(p);
    if (t < 0) {
      res.feasible = false;
      return res;
    }
    res.tightened += t;
    if (t == 0) break;
  }
  return res;
}

}  // namespace xplain::solver
