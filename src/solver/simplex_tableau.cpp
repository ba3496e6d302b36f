// The pre-revised-simplex dense two-phase tableau, kept verbatim as a
// reference oracle: exact, slow, and independent of the production solver's
// code paths.  Tests cross-check solve_lp against it; nothing on the hot
// path calls it.
#include "solver/simplex.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <vector>

#include "util/logging.h"

namespace xplain::solver {

namespace {

// How one original column maps into standard-form columns.
enum class SubstKind {
  kShift,     // x = shift + t          (finite lower bound)
  kNegShift,  // x = shift - t          (lower = -inf, finite upper)
  kSplit,     // x = t1 - t2            (free)
};

struct Subst {
  SubstKind kind;
  int col1 = -1;
  int col2 = -1;
  double shift = 0.0;
};

struct Standard {
  // Dense tableau data, row-major: m rows of (ncols + 1); last entry is rhs.
  int m = 0;
  int ncols = 0;  // structural + slack/surplus + artificial
  std::vector<double> tab;
  std::vector<int> basis;           // basis[i] = column basic in row i
  std::vector<double> cost;         // phase-2 cost per column
  std::vector<char> artificial;     // per column
  std::vector<int> identity_col;    // per row: initial identity column
  std::vector<double> row_scale;    // +1 or -1: sign applied to original row
  int num_original_rows = 0;        // rows before appended bound rows
  double obj_offset = 0.0;          // constant from lower-bound shifts
  double obj_scale = 1.0;           // -1 when original sense was maximize
  std::vector<Subst> subst;         // per original column
};

double& at(Standard& s, int r, int c) { return s.tab[r * (s.ncols + 1) + c]; }
double& rhs(Standard& s, int r) { return s.tab[r * (s.ncols + 1) + s.ncols]; }

// Builds the standard-form tableau: min c't, A t (=) b, t >= 0, b >= 0,
// with an initial identity basis of slacks/artificials.
Standard build_standard(const LpProblem& p) {
  Standard s;
  s.obj_scale = (p.sense == Sense::kMaximize) ? -1.0 : 1.0;
  const int n0 = p.num_cols();

  // --- Column substitutions. ---
  int next_col = 0;
  std::vector<double> struct_cost;
  s.subst.resize(n0);
  struct UpperRow {
    int col;
    double cap;
  };
  std::vector<UpperRow> upper_rows;
  for (int j = 0; j < n0; ++j) {
    const double lo = p.lo(j), hi = p.hi(j);
    const double c = s.obj_scale * p.obj(j);
    if (lo > hi + 1e-12) {
      // Empty box: encode as an infeasible bound row below via shift + cap<0.
      s.subst[j] = {SubstKind::kShift, next_col++, -1, lo};
      struct_cost.push_back(c);
      s.obj_offset += c * lo;
      upper_rows.push_back({s.subst[j].col1, hi - lo});  // cap < 0
      continue;
    }
    if (lo != -kInf) {
      s.subst[j] = {SubstKind::kShift, next_col++, -1, lo};
      struct_cost.push_back(c);
      s.obj_offset += c * lo;
      if (hi != kInf && hi - lo < kInf)
        upper_rows.push_back({s.subst[j].col1, hi - lo});
    } else if (hi != kInf) {
      s.subst[j] = {SubstKind::kNegShift, next_col++, -1, hi};
      struct_cost.push_back(-c);
      s.obj_offset += c * hi;
    } else {
      s.subst[j] = {SubstKind::kSplit, next_col, next_col + 1, 0.0};
      next_col += 2;
      struct_cost.push_back(c);
      struct_cost.push_back(-c);
    }
  }
  const int nstruct = next_col;

  // --- Row assembly (original rows then bound rows). ---
  struct RawRow {
    std::vector<std::pair<int, double>> coef;  // on structural columns
    RowSense sense;
    double rhs;
  };
  std::vector<RawRow> raws;
  raws.reserve(p.num_rows() + upper_rows.size());
  for (const auto& row : p.rows()) {
    RawRow rr;
    rr.sense = row.sense;
    rr.rhs = row.rhs;
    for (const auto& [j, v] : row.coef) {
      const Subst& sub = s.subst[j];
      switch (sub.kind) {
        case SubstKind::kShift:
          rr.coef.emplace_back(sub.col1, v);
          rr.rhs -= v * sub.shift;
          break;
        case SubstKind::kNegShift:
          rr.coef.emplace_back(sub.col1, -v);
          rr.rhs -= v * sub.shift;
          break;
        case SubstKind::kSplit:
          rr.coef.emplace_back(sub.col1, v);
          rr.coef.emplace_back(sub.col2, -v);
          break;
      }
    }
    raws.push_back(std::move(rr));
  }
  s.num_original_rows = static_cast<int>(raws.size());
  for (const auto& ur : upper_rows)
    raws.push_back({{{ur.col, 1.0}}, RowSense::kLe, ur.cap});

  s.m = static_cast<int>(raws.size());
  s.row_scale.assign(s.m, 1.0);

  // Count auxiliary columns: one slack/surplus per inequality row, one
  // artificial per row whose slack cannot start basic.
  int nslack = 0, nart = 0;
  std::vector<int> slack_col(s.m, -1), art_col(s.m, -1);
  for (int i = 0; i < s.m; ++i) {
    if (raws[i].rhs < 0) {
      s.row_scale[i] = -1.0;
      raws[i].rhs = -raws[i].rhs;
      for (auto& [j, v] : raws[i].coef) v = -v;
      if (raws[i].sense == RowSense::kLe)
        raws[i].sense = RowSense::kGe;
      else if (raws[i].sense == RowSense::kGe)
        raws[i].sense = RowSense::kLe;
    }
    if (raws[i].sense != RowSense::kEq) ++nslack;
    if (raws[i].sense != RowSense::kLe) ++nart;
  }
  s.ncols = nstruct + nslack + nart;
  s.cost.assign(s.ncols, 0.0);
  std::copy(struct_cost.begin(), struct_cost.end(), s.cost.begin());
  s.artificial.assign(s.ncols, 0);
  s.tab.assign(static_cast<std::size_t>(s.m) * (s.ncols + 1), 0.0);
  s.basis.assign(s.m, -1);
  s.identity_col.assign(s.m, -1);

  int aux = nstruct;
  for (int i = 0; i < s.m; ++i) {
    for (const auto& [j, v] : raws[i].coef) at(s, i, j) += v;
    rhs(s, i) = raws[i].rhs;
    if (raws[i].sense == RowSense::kLe) {
      slack_col[i] = aux;
      at(s, i, aux) = 1.0;
      s.basis[i] = aux;
      s.identity_col[i] = aux;
      ++aux;
    } else if (raws[i].sense == RowSense::kGe) {
      slack_col[i] = aux;
      at(s, i, aux) = -1.0;
      ++aux;
    }
  }
  for (int i = 0; i < s.m; ++i) {
    if (s.basis[i] >= 0) continue;  // has a basic slack already
    art_col[i] = aux;
    at(s, i, aux) = 1.0;
    s.artificial[aux] = 1;
    s.basis[i] = aux;
    s.identity_col[i] = aux;
    ++aux;
  }
  assert(aux == s.ncols);
  return s;
}

struct PhaseResult {
  Status status = Status::kOptimal;
  long iterations = 0;
};

// Runs the simplex on `s` minimizing `phase_cost` until optimal, unbounded,
// or the iteration budget is exhausted.  `forbid` marks columns that must
// never enter the basis (phase-2 artificials).
PhaseResult run_phase(Standard& s, const std::vector<double>& phase_cost,
                      const std::vector<char>& forbid, long iter_budget) {
  const int m = s.m, n = s.ncols;
  // Reduced costs: cbar_j = c_j - sum_i c_B[i] * T[i][j].
  std::vector<double> cbar(phase_cost);
  for (int i = 0; i < m; ++i) {
    const double cb = phase_cost[s.basis[i]];
    if (cb == 0.0) continue;
    const double* row = &s.tab[static_cast<std::size_t>(i) * (n + 1)];
    for (int j = 0; j < n; ++j) cbar[j] -= cb * row[j];
  }

  PhaseResult res;
  long degenerate_run = 0;
  bool bland = false;
  for (long iter = 0; iter < iter_budget; ++iter) {
    // Basic columns must show zero reduced cost; clamp drift.
    for (int i = 0; i < m; ++i) cbar[s.basis[i]] = 0.0;

    // --- Pricing. ---
    int enter = -1;
    if (!bland) {
      double best = -kCostTol;
      for (int j = 0; j < n; ++j) {
        if (forbid[j]) continue;
        if (cbar[j] < best) {
          best = cbar[j];
          enter = j;
        }
      }
    } else {
      for (int j = 0; j < n; ++j) {
        if (forbid[j]) continue;
        if (cbar[j] < -kCostTol) {
          enter = j;
          break;
        }
      }
    }
    if (enter < 0) {
      res.iterations = iter;
      return res;  // optimal for this phase
    }

    // --- Ratio test (with the zero-artificial guard). ---
    int leave = -1;
    double best_ratio = kInf, best_pivot = 0.0;
    for (int i = 0; i < m; ++i) {
      const double a = at(s, i, enter);
      const double b = rhs(s, i);
      // Basic artificial stuck at zero: pivot it out on any nonzero entry so
      // it can never become positive again.
      if (s.artificial[s.basis[i]] && std::abs(b) <= kFeasTol &&
          std::abs(a) > kPivotTol) {
        leave = i;
        best_ratio = 0.0;
        best_pivot = std::abs(a);
        break;
      }
      if (a > kPivotTol) {
        const double ratio = b / a;
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 && std::abs(a) > best_pivot)) {
          best_ratio = ratio;
          best_pivot = std::abs(a);
          leave = i;
        }
      }
    }
    if (leave < 0) {
      res.status = Status::kUnbounded;
      res.iterations = iter;
      return res;
    }
    if (bland) {
      // Bland: among rows achieving the minimum ratio, leave the smallest
      // basis index (recompute strictly).
      double min_ratio = kInf;
      for (int i = 0; i < m; ++i) {
        const double a = at(s, i, enter);
        if (a > kPivotTol) min_ratio = std::min(min_ratio, rhs(s, i) / a);
      }
      leave = -1;
      int best_var = INT_MAX;
      for (int i = 0; i < m; ++i) {
        const double a = at(s, i, enter);
        if (a > kPivotTol &&
            rhs(s, i) / a <= min_ratio + kFeasTol &&
            s.basis[i] < best_var) {
          best_var = s.basis[i];
          leave = i;
        }
      }
      if (leave < 0) {
        res.status = Status::kUnbounded;
        res.iterations = iter;
        return res;
      }
      best_ratio = min_ratio;
    }

    degenerate_run = (best_ratio <= kFeasTol) ? degenerate_run + 1 : 0;
    if (degenerate_run > 2 * (m + n)) bland = true;

    // --- Pivot. ---
    const double piv = at(s, leave, enter);
    double* prow = &s.tab[static_cast<std::size_t>(leave) * (n + 1)];
    const double inv = 1.0 / piv;
    for (int j = 0; j <= n; ++j) prow[j] *= inv;
    for (int i = 0; i < m; ++i) {
      if (i == leave) continue;
      const double f = at(s, i, enter);
      if (f == 0.0) continue;
      double* row = &s.tab[static_cast<std::size_t>(i) * (n + 1)];
      for (int j = 0; j <= n; ++j) row[j] -= f * prow[j];
      row[enter] = 0.0;
    }
    {
      const double f = cbar[enter];
      if (f != 0.0)
        for (int j = 0; j < n; ++j) cbar[j] -= f * prow[j];
      cbar[enter] = 0.0;
    }
    s.basis[leave] = enter;
  }
  res.status = Status::kLimit;
  res.iterations = iter_budget;
  return res;
}

double phase_objective(const Standard& s, const std::vector<double>& cost) {
  double v = 0.0;
  for (int i = 0; i < s.m; ++i)
    v += cost[s.basis[i]] *
         s.tab[static_cast<std::size_t>(i) * (s.ncols + 1) + s.ncols];
  return v;
}

}  // namespace

LpSolution solve_lp_tableau(const LpProblem& p, const SimplexOptions& opts) {
  LpSolution sol;
  Standard s = build_standard(p);
  const int m = s.m, n = s.ncols;

  // --- Phase 1: minimize the sum of artificials. ---
  bool any_art = std::any_of(s.artificial.begin(), s.artificial.end(),
                             [](char a) { return a != 0; });
  long iters = 0;
  if (any_art) {
    std::vector<double> c1(n, 0.0);
    for (int j = 0; j < n; ++j)
      if (s.artificial[j]) c1[j] = 1.0;
    std::vector<char> forbid(n, 0);
    PhaseResult r1 = run_phase(s, c1, forbid, opts.max_iterations);
    iters += r1.iterations;
    if (r1.status == Status::kLimit) {
      sol.status = Status::kLimit;
      sol.iterations = iters;
      return sol;
    }
    // Phase-1 LP is bounded below by 0, so kUnbounded cannot occur here.
    if (phase_objective(s, c1) > 1e2 * kFeasTol * (1.0 + m)) {
      sol.status = Status::kInfeasible;
      sol.iterations = iters;
      return sol;
    }
    // Pivot residual zero-valued artificials out of the basis when possible.
    for (int i = 0; i < m; ++i) {
      if (!s.artificial[s.basis[i]]) continue;
      for (int j = 0; j < n; ++j) {
        if (s.artificial[j]) continue;
        if (std::abs(at(s, i, j)) > 1e3 * kPivotTol) {
          const double piv = at(s, i, j);
          double* prow = &s.tab[static_cast<std::size_t>(i) * (n + 1)];
          const double inv = 1.0 / piv;
          for (int k = 0; k <= n; ++k) prow[k] *= inv;
          for (int r = 0; r < m; ++r) {
            if (r == i) continue;
            const double f = at(s, r, j);
            if (f == 0.0) continue;
            double* row = &s.tab[static_cast<std::size_t>(r) * (n + 1)];
            for (int k = 0; k <= n; ++k) row[k] -= f * prow[k];
            row[j] = 0.0;
          }
          s.basis[i] = j;
          break;
        }
      }
    }
  }

  // --- Phase 2. ---
  std::vector<char> forbid(n, 0);
  for (int j = 0; j < n; ++j) forbid[j] = s.artificial[j];
  PhaseResult r2 =
      run_phase(s, s.cost, forbid, opts.max_iterations - iters);
  iters += r2.iterations;
  sol.iterations = iters;
  if (r2.status == Status::kUnbounded) {
    sol.status = Status::kUnbounded;
    return sol;
  }
  if (r2.status == Status::kLimit) {
    sol.status = Status::kLimit;
    return sol;
  }

  // --- Extraction: primal values. ---
  std::vector<double> t(n, 0.0);
  for (int i = 0; i < m; ++i) t[s.basis[i]] = rhs(s, i);
  sol.x.assign(p.num_cols(), 0.0);
  for (int j = 0; j < p.num_cols(); ++j) {
    const Subst& sub = s.subst[j];
    switch (sub.kind) {
      case SubstKind::kShift: sol.x[j] = sub.shift + t[sub.col1]; break;
      case SubstKind::kNegShift: sol.x[j] = sub.shift - t[sub.col1]; break;
      case SubstKind::kSplit: sol.x[j] = t[sub.col1] - t[sub.col2]; break;
    }
  }
  sol.obj = p.eval_obj(sol.x);

  // --- Duals from the initial-identity columns. ---
  // For row i whose initial identity column is q:  y_i = c_q - cbar_q, where
  // cbar_q = c_q - sum c_B[i'] T[i'][q]; both slack and artificial columns
  // carry zero phase-2 cost, so y_i = sum_i' c_B[i'] * T[i'][q].
  sol.y.assign(s.num_original_rows, 0.0);
  for (int i = 0; i < s.num_original_rows; ++i) {
    const int q = s.identity_col[i];
    double y = 0.0;
    for (int r = 0; r < m; ++r) {
      const double cb = s.cost[s.basis[r]];
      if (cb != 0.0) y += cb * at(s, r, q);
    }
    // Undo row negation; undo the min/max objective flip.
    y *= s.row_scale[i];
    sol.y[i] = s.obj_scale * y;
  }

  sol.status = Status::kOptimal;
  return sol;
}

}  // namespace xplain::solver
