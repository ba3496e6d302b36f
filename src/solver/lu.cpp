#include "solver/lu.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace xplain::solver {

namespace {

/// Entries below the column max by more than this factor are inadmissible
/// pivots (threshold partial pivoting): sparser rows may be preferred, but
/// never at more than 10x growth per elimination step.
constexpr double kPivotThreshold = 0.1;
/// Absolute floor below which a column is treated as numerically zero.
constexpr double kSingularTol = 1e-11;
/// A Forrest-Tomlin update is rejected when the new diagonal disagrees
/// with its independently computed value (old diagonal x the FTRAN pivot)
/// by more than this relative drift — catastrophic cancellation in the row
/// elimination shows up exactly there, and a rejected update only costs a
/// refactorization.
constexpr double kFtDriftTol = 1e-6;
/// Forrest-Tomlin growth guards.  The updated diagonal is exactly
/// mu = udiag_t * alpha_slot, so every small-pivot update shrinks a
/// diagonal multiplicatively and the next update's row-elimination
/// multipliers (u_tj / u_jj) grow in step — left unguarded, a ~100-update
/// chain on a degenerate LP drifts the representation by many orders of
/// magnitude (the product-form eta file never compounds like this: its
/// divisor is the fresh FTRAN pivot each time).  An update is therefore
/// rejected — costing one refactorization — when the FTRAN pivot is below
/// kFtMinPivot or any elimination multiplier exceeds kFtMaxMultiplier.
constexpr double kFtMinPivot = 1e-4;
constexpr double kFtMaxMultiplier = 1e5;
/// The BTRAN U^T pass walks the reach of the rhs pattern instead of
/// gathering all of U when the pattern is at least this factor smaller
/// than the dimension.  A pure function of deterministic nonzero counts,
/// so the path choice never breaks bitwise determinism.
constexpr int kHyperSparseFactor = 8;

}  // namespace

// Nonrecursive depth-first search over the partially built L: the reach of
// `row` gives every row whose solution component the triangular solve can
// touch.  Rows are pushed onto xi_[top..m_) in topological order.
int LuFactorization::dfs(int row, int top, const std::vector<int>& lp,
                         const std::vector<int>& li) {
  int head = 0;
  stack_[0] = row;
  while (head >= 0) {
    const int r = stack_[head];
    if (visited_[r] == 0) {
      visited_[r] = 1;
      const int step = bpinv_[r];
      pstack_[head] = (step < 0) ? 0 : lp[step];
    }
    const int step = bpinv_[r];
    const int pend = (step < 0) ? 0 : lp[step + 1];
    bool descended = false;
    for (int p = pstack_[head]; p < pend; ++p) {
      const int child = li[p];
      if (visited_[child] != 0) continue;
      pstack_[head] = p + 1;
      stack_[++head] = child;
      descended = true;
      break;
    }
    if (!descended) {
      xi_[--top] = r;
      --head;
    }
  }
  return top;
}

bool LuFactorization::factorize(int m, const std::vector<int>& cp,
                                const std::vector<int>& ci,
                                const std::vector<double>& cx,
                                const std::vector<int>& basis_cols) {
  if (cfg_dense_) return factorize_dense(m, cp, ci, cx, basis_cols);

  // Build into the b*-scratch so a singular basis leaves the active
  // factorization (and its update file) untouched.
  // Markowitz-style column preorder: sparsest basis columns pivot first.
  // Counting sort by column length (stable, O(m + maxlen)): warm solves
  // factorize on every install, so this runs in the sampling hot loops.
  border_.resize(m);
  int maxlen = 0;
  for (int k = 0; k < m; ++k) {
    const int j = basis_cols[k];
    maxlen = std::max(maxlen, cp[j + 1] - cp[j]);
  }
  rdeg_.assign(maxlen + 2, 0);  // reused as bucket counters first
  for (int k = 0; k < m; ++k) {
    const int j = basis_cols[k];
    ++rdeg_[cp[j + 1] - cp[j] + 1];
  }
  for (int l = 0; l <= maxlen; ++l) rdeg_[l + 1] += rdeg_[l];
  for (int k = 0; k < m; ++k) {
    const int j = basis_cols[k];
    border_[rdeg_[cp[j + 1] - cp[j]]++] = k;
  }
  // Static row degrees of the basis matrix, for the sparsity tie-break.
  rdeg_.assign(m, 0);
  for (int k = 0; k < m; ++k) {
    const int j = basis_cols[k];
    for (int t = cp[j]; t < cp[j + 1]; ++t) ++rdeg_[ci[t]];
  }

  bpinv_.assign(m, -1);
  bpivrow_.assign(m, -1);
  bcolorder_.resize(m);
  blp_.assign(1, 0);
  bli_.clear();
  blx_.clear();
  bup_.assign(1, 0);
  bui_.clear();
  bux_.clear();
  budiag_.resize(m);
  xi_.resize(m);
  stack_.resize(m);
  pstack_.resize(m);
  visited_.assign(m, 0);
  xw_.assign(m, 0.0);

  for (int k = 0; k < m; ++k) {
    const int slot = border_[k];
    const int j = basis_cols[slot];
    bcolorder_[k] = slot;

    // --- Symbolic: reach of column j's rows through the current L. ---
    int top = m;
    for (int t = cp[j]; t < cp[j + 1]; ++t)
      if (visited_[ci[t]] == 0) top = dfs(ci[t], top, blp_, bli_);

    // --- Numeric sparse triangular solve x = L \ B_j. ---
    for (int p = top; p < m; ++p) xw_[xi_[p]] = 0.0;
    for (int t = cp[j]; t < cp[j + 1]; ++t) xw_[ci[t]] += cx[t];
    for (int p = top; p < m; ++p) {
      const int r = xi_[p];
      const int step = bpinv_[r];
      if (step < 0) continue;
      const double xv = xw_[r];
      if (xv == 0.0) continue;
      for (int q = blp_[step]; q < blp_[step + 1]; ++q)
        xw_[bli_[q]] -= blx_[q] * xv;
    }

    // --- Pivot: threshold partial pivoting with a static-degree
    // (Markowitz-style) tie-break among admissible rows. ---
    double xmax = 0.0;
    for (int p = top; p < m; ++p) {
      const int r = xi_[p];
      if (bpinv_[r] < 0) xmax = std::max(xmax, std::abs(xw_[r]));
    }
    if (xmax <= kSingularTol) {
      for (int p = top; p < m; ++p) visited_[xi_[p]] = 0;
      return false;  // structurally or numerically singular
    }
    int pivot_row = -1;
    int pivot_deg = m + 1;
    double pivot_abs = 0.0;
    for (int p = top; p < m; ++p) {
      const int r = xi_[p];
      if (bpinv_[r] >= 0) continue;
      const double a = std::abs(xw_[r]);
      if (a < kPivotThreshold * xmax || a <= kSingularTol) continue;
      if (rdeg_[r] < pivot_deg ||
          (rdeg_[r] == pivot_deg && a > pivot_abs)) {
        pivot_deg = rdeg_[r];
        pivot_abs = a;
        pivot_row = r;
      }
    }
    const double piv = xw_[pivot_row];

    // --- Emit U column k (pivoted rows) and L column k (multipliers). ---
    for (int p = top; p < m; ++p) {
      const int r = xi_[p];
      visited_[r] = 0;  // reset marks for the next column
      const double xv = xw_[r];
      const int step = bpinv_[r];
      if (step >= 0) {
        if (xv != 0.0) {
          bui_.push_back(step);
          bux_.push_back(xv);
        }
      } else if (r != pivot_row) {
        const double f = xv / piv;
        if (f != 0.0) {
          bli_.push_back(r);
          blx_.push_back(f);
        }
      }
    }
    budiag_[k] = piv;
    bpivrow_[k] = pivot_row;
    bpinv_[pivot_row] = k;
    blp_.push_back(static_cast<int>(bli_.size()));
    bup_.push_back(static_cast<int>(bui_.size()));
  }

  // Success: publish the new factors, rebuild the dynamic U structures
  // (identity triangular order, row adjacency), clear the update file.
  m_ = m;
  lp_.swap(blp_);
  li_.swap(bli_);
  lx_.swap(blx_);
  ui_.swap(bui_);
  ux_.swap(bux_);
  udiag_.swap(budiag_);
  pivrow_.swap(bpivrow_);
  colorder_.swap(bcolorder_);
  pinv_.swap(bpinv_);
  ucolp_.resize(m);
  ulen_.resize(m);
  uorder_.resize(m);
  upos_.resize(m);
  sinv_.resize(m);
  if (static_cast<int>(urows_.size()) < m) urows_.resize(m);
  for (int k = 0; k < m; ++k) {
    ucolp_[k] = bup_[k];
    ulen_[k] = bup_[k + 1] - bup_[k];
    uorder_[k] = k;
    upos_[k] = k;
    sinv_[colorder_[k]] = k;
    urows_[k].clear();
  }
  for (int k = 0; k < m; ++k)
    for (int q = ucolp_[k]; q < ucolp_[k] + ulen_[k]; ++q)
      urows_[ui_[q]].push_back(k);
  re_start_.assign(1, 0);
  re_t_.clear();
  re_idx_.clear();
  re_val_.clear();
  ftw_valid_ = false;
  ftwork_.assign(m, 0.0);
  hvis_.assign(m, 0);
  hstack_.resize(m);
  hpos_.resize(m);
  eta_start_.assign(1, 0);
  eta_slot_.clear();
  eta_piv_.clear();
  eta_idx_.clear();
  eta_val_.clear();
  update_count_ = 0;
  update_nnz_ = 0;
  fnnz_ = static_cast<long>(li_.size() + ui_.size()) + m;
  dense_active_ = false;
  ft_active_ = cfg_ft_;
  return true;
}

bool LuFactorization::factorize_dense(int m, const std::vector<int>& cp,
                                      const std::vector<int>& ci,
                                      const std::vector<double>& cx,
                                      const std::vector<int>& basis_cols) {
  // Column-major dense build; columns stay in natural slot order (no
  // sparsity ordering at these sizes), so slot == step throughout.
  bdmat_.assign(static_cast<std::size_t>(m) * m, 0.0);
  for (int k = 0; k < m; ++k) {
    const int j = basis_cols[k];
    for (int t = cp[j]; t < cp[j + 1]; ++t)
      bdmat_[static_cast<std::size_t>(k) * m + ci[t]] += cx[t];
  }
  // LAPACK-style in-place LU with partial pivoting (row swaps recorded as
  // an ipiv sequence); L's unit diagonal is implicit.
  bdipiv_.resize(m);
  for (int k = 0; k < m; ++k) {
    double* kcol = bdmat_.data() + static_cast<std::size_t>(k) * m;
    int piv = k;
    double best = std::abs(kcol[k]);
    for (int r = k + 1; r < m; ++r) {
      const double a = std::abs(kcol[r]);
      if (a > best) {
        best = a;
        piv = r;
      }
    }
    if (best <= kSingularTol) return false;  // previous factors untouched
    bdipiv_[k] = piv;
    if (piv != k)
      for (int c = 0; c < m; ++c)
        std::swap(bdmat_[static_cast<std::size_t>(c) * m + k],
                  bdmat_[static_cast<std::size_t>(c) * m + piv]);
    const double d = kcol[k];
    for (int r = k + 1; r < m; ++r) kcol[r] /= d;
    for (int c = k + 1; c < m; ++c) {
      double* ccol = bdmat_.data() + static_cast<std::size_t>(c) * m;
      const double u = ccol[k];
      if (u == 0.0) continue;
      for (int r = k + 1; r < m; ++r) ccol[r] -= kcol[r] * u;
    }
  }
  m_ = m;
  dmat_.swap(bdmat_);
  dipiv_.swap(bdipiv_);
  eta_start_.assign(1, 0);
  eta_slot_.clear();
  eta_piv_.clear();
  eta_idx_.clear();
  eta_val_.clear();
  update_count_ = 0;
  update_nnz_ = 0;
  fnnz_ = static_cast<long>(m) * m;
  dense_active_ = true;
  ft_active_ = false;
  ftw_valid_ = false;
  return true;
}

long LuFactorization::factor_nnz() const { return fnnz_; }

void LuFactorization::assign_factors(const LuFactorization& src) {
  m_ = src.m_;
  cfg_dense_ = src.cfg_dense_;
  cfg_ft_ = src.cfg_ft_;
  dense_active_ = src.dense_active_;
  ft_active_ = src.ft_active_;
  update_count_ = src.update_count_;
  update_nnz_ = src.update_nnz_;
  fnnz_ = src.fnnz_;
  ftw_valid_ = false;  // the spike stash belongs to the next ftran()
  eta_start_ = src.eta_start_;
  eta_slot_ = src.eta_slot_;
  eta_piv_ = src.eta_piv_;
  eta_idx_ = src.eta_idx_;
  eta_val_ = src.eta_val_;
  if (dense_active_) {
    dmat_ = src.dmat_;
    dipiv_ = src.dipiv_;
    return;
  }
  lp_ = src.lp_;
  li_ = src.li_;
  lx_ = src.lx_;
  ui_ = src.ui_;
  ux_ = src.ux_;
  ucolp_ = src.ucolp_;
  ulen_ = src.ulen_;
  udiag_ = src.udiag_;
  if (static_cast<int>(urows_.size()) < m_) urows_.resize(m_);
  for (int k = 0; k < m_; ++k) urows_[k] = src.urows_[k];
  uorder_ = src.uorder_;
  upos_ = src.upos_;
  pivrow_ = src.pivrow_;
  colorder_ = src.colorder_;
  sinv_ = src.sinv_;
  pinv_ = src.pinv_;
  re_start_ = src.re_start_;
  re_t_ = src.re_t_;
  re_idx_ = src.re_idx_;
  re_val_ = src.re_val_;
  // Update/BTRAN scratch that must be m-sized and all-zero on entry (both
  // stay all-zero between calls, so only a size change needs a reset).
  if (static_cast<int>(ftwork_.size()) != m_) ftwork_.assign(m_, 0.0);
  if (static_cast<int>(hvis_.size()) != m_) hvis_.assign(m_, 0);
  hstack_.resize(m_);
  hpos_.resize(m_);
}

void LuFactorization::apply_etas_ftran(std::vector<double>& x) const {
  const int etas = static_cast<int>(eta_slot_.size());
  for (int e = 0; e < etas; ++e) {
    const int slot = eta_slot_[e];
    const double t = x[slot] / eta_piv_[e];
    x[slot] = t;
    if (t == 0.0) continue;
    for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p)
      x[eta_idx_[p]] -= eta_val_[p] * t;
  }
}

void LuFactorization::apply_etas_btran(std::vector<double>& y) const {
  // Eta transposes, newest-first: u^T E_1..E_k = c^T peels E_k off first.
  for (int e = static_cast<int>(eta_slot_.size()) - 1; e >= 0; --e) {
    const int slot = eta_slot_[e];
    double t = y[slot];
    for (int p = eta_start_[e]; p < eta_start_[e + 1]; ++p)
      t -= eta_val_[p] * y[eta_idx_[p]];
    y[slot] = t / eta_piv_[e];
  }
}

void LuFactorization::ftran(std::vector<double>& x) const {
  if (dense_active_) {
    ftran_dense(x);
    return;
  }
  // L-pass (forward, unit diagonal): y_k = (L^-1 P b)_k in step space.
  step_.resize(m_);
  for (int k = 0; k < m_; ++k) {
    const double yk = x[pivrow_[k]];
    step_[k] = yk;
    if (yk == 0.0) continue;
    for (int p = lp_[k]; p < lp_[k + 1]; ++p) x[li_[p]] -= lx_[p] * yk;
  }
  // Forrest-Tomlin row etas, oldest-first: each update's row operations
  // sit between L and the current U in the factor chain.
  const int nre = static_cast<int>(re_t_.size());
  for (int e = 0; e < nre; ++e) {
    double acc = step_[re_t_[e]];
    for (int q = re_start_[e]; q < re_start_[e + 1]; ++q)
      acc -= re_val_[q] * step_[re_idx_[q]];
    step_[re_t_[e]] = acc;
  }
  // This intermediate IS the respiked column of a Forrest-Tomlin update,
  // should the caller pivot on this column next (see update()).
  if (ft_active_) {
    ftw_.assign(step_.begin(), step_.end());
    ftw_valid_ = true;
  }
  // U-pass (backward in the dynamic triangular order, column scatter).
  for (int p = m_ - 1; p >= 0; --p) {
    const int k = uorder_[p];
    const double zk = step_[k] / udiag_[k];
    step_[k] = zk;
    if (zk == 0.0) continue;
    const int h = ucolp_[k], e = h + ulen_[k];
    for (int q = h; q < e; ++q) step_[ui_[q]] -= ux_[q] * zk;
  }
  // Scatter to slot space, then replay product-form etas oldest-first
  // (empty in Forrest-Tomlin mode).
  for (int k = 0; k < m_; ++k) x[colorder_[k]] = step_[k];
  apply_etas_ftran(x);
}

// U^T pass over step_ (in place): either a full gather in the dynamic
// triangular order, or — when the rhs pattern is hyper-sparse — a
// depth-first reach over the row adjacency visiting only the columns the
// solution can touch.  Reached nodes gather their column entries in the
// exact storage order the full pass uses, so both paths produce bitwise
// identical nonzeros (unreached components are exact zeros).
void LuFactorization::solve_ut(int nseeds) const {
  if (static_cast<long>(nseeds) * kHyperSparseFactor >= m_) {
    for (int p = 0; p < m_; ++p) {
      const int k = uorder_[p];
      double acc = step_[k];
      const int h = ucolp_[k], e = h + ulen_[k];
      for (int q = h; q < e; ++q) acc -= ux_[q] * step_[ui_[q]];
      step_[k] = acc / udiag_[k];
    }
    return;
  }
  // Reach: node r feeds every column in urows_[r]; reverse DFS postorder
  // is a topological order (dependencies first).  hvis_ marks are restored
  // to all-zero on the way out.
  hord_.clear();
  for (int s = 0; s < m_; ++s) {
    if (step_[s] == 0.0 || hvis_[s] != 0) continue;
    int head = 0;
    hstack_[0] = s;
    hpos_[0] = 0;
    hvis_[s] = 1;
    while (head >= 0) {
      const int r = hstack_[head];
      const std::vector<int>& adj = urows_[r];
      const int deg = static_cast<int>(adj.size());
      bool descended = false;
      for (int q = hpos_[head]; q < deg; ++q) {
        const int c = adj[q];
        if (hvis_[c] != 0) continue;
        hpos_[head] = q + 1;
        hvis_[c] = 1;
        ++head;
        hstack_[head] = c;
        hpos_[head] = 0;
        descended = true;
        break;
      }
      if (!descended) {
        hord_.push_back(r);
        --head;
      }
    }
  }
  for (int i = static_cast<int>(hord_.size()) - 1; i >= 0; --i) {
    const int k = hord_[i];
    double acc = step_[k];
    const int h = ucolp_[k], e = h + ulen_[k];
    for (int q = h; q < e; ++q) acc -= ux_[q] * step_[ui_[q]];
    step_[k] = acc / udiag_[k];
    hvis_[k] = 0;
  }
}

void LuFactorization::btran(std::vector<double>& y) const {
  if (dense_active_) {
    btran_dense(y);
    return;
  }
  apply_etas_btran(y);  // no-op in Forrest-Tomlin mode
  // Gather to step space, counting the rhs pattern for the U^T path choice.
  step_.resize(m_);
  int nseeds = 0;
  for (int k = 0; k < m_; ++k) {
    const double v = y[colorder_[k]];
    step_[k] = v;
    if (v != 0.0) ++nseeds;
  }
  solve_ut(nseeds);
  // Forrest-Tomlin row etas, transposed, newest-first.
  for (int e = static_cast<int>(re_t_.size()) - 1; e >= 0; --e) {
    const double v = step_[re_t_[e]];
    if (v == 0.0) continue;
    for (int q = re_start_[e]; q < re_start_[e + 1]; ++q)
      step_[re_idx_[q]] -= re_val_[q] * v;
  }
  // L^T-pass (backward, gather): entries of L column k live in rows pivoted
  // at later steps, so their solution components are already final.
  for (int k = m_ - 1; k >= 0; --k) {
    double acc = step_[k];
    for (int p = lp_[k]; p < lp_[k + 1]; ++p)
      acc -= lx_[p] * step_[pinv_[li_[p]]];
    step_[k] = acc;
  }
  for (int k = 0; k < m_; ++k) y[pivrow_[k]] = step_[k];
}

void LuFactorization::ftran_dense(std::vector<double>& x) const {
  step_.resize(m_);
  for (int k = 0; k < m_; ++k) step_[k] = x[k];
  for (int k = 0; k < m_; ++k) std::swap(step_[k], step_[dipiv_[k]]);
  // L forward (unit diagonal, multipliers below the diagonal).
  for (int k = 0; k < m_; ++k) {
    const double v = step_[k];
    if (v == 0.0) continue;
    const double* col = dmat_.data() + static_cast<std::size_t>(k) * m_;
    for (int r = k + 1; r < m_; ++r) step_[r] -= col[r] * v;
  }
  // U backward.
  for (int k = m_ - 1; k >= 0; --k) {
    const double* col = dmat_.data() + static_cast<std::size_t>(k) * m_;
    const double v = step_[k] / col[k];
    step_[k] = v;
    if (v == 0.0) continue;
    for (int r = 0; r < k; ++r) step_[r] -= col[r] * v;
  }
  // Dense columns are in natural slot order: step == slot.
  for (int k = 0; k < m_; ++k) x[k] = step_[k];
  apply_etas_ftran(x);
}

void LuFactorization::btran_dense(std::vector<double>& y) const {
  apply_etas_btran(y);
  step_.resize(m_);
  for (int k = 0; k < m_; ++k) step_[k] = y[k];
  // U^T forward: row k of U^T is column k of the packed factor above the
  // diagonal — a contiguous column-major gather.
  for (int k = 0; k < m_; ++k) {
    const double* col = dmat_.data() + static_cast<std::size_t>(k) * m_;
    double acc = step_[k];
    for (int r = 0; r < k; ++r) acc -= col[r] * step_[r];
    step_[k] = acc / col[k];
  }
  // L^T backward.
  for (int k = m_ - 1; k >= 0; --k) {
    const double* col = dmat_.data() + static_cast<std::size_t>(k) * m_;
    double acc = step_[k];
    for (int r = k + 1; r < m_; ++r) acc -= col[r] * step_[r];
    step_[k] = acc;
  }
  // Undo the pivoting row swaps in reverse order: y = P^T w.
  for (int k = m_ - 1; k >= 0; --k) std::swap(step_[k], step_[dipiv_[k]]);
  for (int k = 0; k < m_; ++k) y[k] = step_[k];
}

bool LuFactorization::update(int leave_slot, const std::vector<double>& alpha) {
  if (dense_active_ || !ft_active_) {
    push_eta(leave_slot, alpha);
    return true;
  }
  return ft_update(leave_slot, alpha);
}

bool LuFactorization::ft_update(int leave_slot,
                                const std::vector<double>& alpha) {
  // The spike w = L^-1 (row etas) P A_enter was stashed by the ftran() of
  // the entering column; without it (defensive — the simplex always pivots
  // straight after that ftran) the only safe move is a refactorization.
  if (!ftw_valid_) return false;
  ftw_valid_ = false;
  // Growth guard #1: mu = udiag_t * alpha_slot, so a small FTRAN pivot
  // shrinks the diagonal multiplicatively — refactorizing is cheaper than
  // the drift a chain of such updates accumulates.
  if (std::abs(alpha[leave_slot]) < kFtMinPivot) return false;
  const int t = sinv_[leave_slot];
  const int pt = upos_[t];

  // --- Eliminate row t against every later row, read-only: multipliers
  // land in the row-eta arrays (rolled back on rejection), fill stays in
  // ftwork_ (self-cleaning: every touched index is at a later position and
  // gets zeroed when its turn comes).  The new diagonal is
  // mu = w_t - sum m_j w_j, because column t of the respiked U holds w. ---
  for (const int c : urows_[t]) {
    const int h = ucolp_[c], e = h + ulen_[c];
    for (int q = h; q < e; ++q) {
      if (ui_[q] == t) {
        ftwork_[c] = ux_[q];
        break;
      }
    }
  }
  const std::size_t re0 = re_idx_.size();
  double mu = ftw_[t];
  double mmax = 0.0;
  for (int p = pt + 1; p < m_; ++p) {
    const int j = uorder_[p];
    const double v = ftwork_[j];
    if (v == 0.0) continue;
    ftwork_[j] = 0.0;
    const double mj = v / udiag_[j];
    mmax = std::max(mmax, std::abs(mj));
    for (const int c : urows_[j]) {
      const int h = ucolp_[c], e = h + ulen_[c];
      for (int q = h; q < e; ++q) {
        if (ui_[q] == j) {
          ftwork_[c] -= mj * ux_[q];
          break;
        }
      }
    }
    mu -= mj * ftw_[j];
    re_idx_.push_back(j);
    re_val_.push_back(mj);
  }

  // --- Stability: mu must match udiag_t * alpha_leave (Cramer's rule gives
  // the identity exactly; FP drift beyond kFtDriftTol means the elimination
  // cancelled catastrophically) and clear the singularity floor. ---
  double wmax = 1.0;
  for (int k = 0; k < m_; ++k) wmax = std::max(wmax, std::abs(ftw_[k]));
  const double expected = udiag_[t] * alpha[leave_slot];
  if (mmax > kFtMaxMultiplier ||  // growth guard #2: elimination blow-up
      !(std::abs(mu) > kSingularTol * wmax) ||
      std::abs(mu - expected) >
          kFtDriftTol * (std::abs(mu) + std::abs(expected) + 1.0)) {
    re_idx_.resize(re0);
    re_val_.resize(re0);
    return false;
  }

  // --- Commit: drop row t from U, abandon the old column t, splice in the
  // spike as the new column t, and move step t to the last position. ---
  for (const int c : urows_[t]) {
    const int h = ucolp_[c];
    int e = h + ulen_[c];
    for (int q = h; q < e; ++q) {
      if (ui_[q] == t) {
        --e;
        ui_[q] = ui_[e];  // order-agnostic removal, still deterministic
        ux_[q] = ux_[e];
        --ulen_[c];
        break;
      }
    }
  }
  urows_[t].clear();
  {
    const int h = ucolp_[t], e = h + ulen_[t];
    for (int q = h; q < e; ++q) {
      std::vector<int>& adj = urows_[ui_[q]];
      for (std::size_t z = 0; z < adj.size(); ++z) {
        if (adj[z] == t) {
          adj[z] = adj.back();
          adj.pop_back();
          break;
        }
      }
    }
  }
  // The stale slice of the old column t is abandoned in place; the next
  // refactorization rebuilds the arrays, so leakage is bounded by the
  // refactorization triggers (exactly like eta-file growth was).
  ucolp_[t] = static_cast<int>(ui_.size());
  int len = 0;
  for (int r = 0; r < m_; ++r) {
    if (r == t) continue;
    const double v = ftw_[r];
    if (v == 0.0) continue;
    ui_.push_back(r);
    ux_.push_back(v);
    urows_[r].push_back(t);
    ++len;
  }
  ulen_[t] = len;
  udiag_[t] = mu;
  re_t_.push_back(t);
  re_start_.push_back(static_cast<int>(re_idx_.size()));
  for (int p = pt; p + 1 < m_; ++p) {
    uorder_[p] = uorder_[p + 1];
    upos_[uorder_[p]] = p;
  }
  uorder_[m_ - 1] = t;
  upos_[t] = m_ - 1;
  ++update_count_;
  update_nnz_ += static_cast<long>(re_idx_.size() - re0) + len;
  return true;
}

void LuFactorization::push_eta(int leave_slot,
                               const std::vector<double>& alpha) {
  eta_slot_.push_back(leave_slot);
  eta_piv_.push_back(alpha[leave_slot]);
  for (int i = 0; i < m_; ++i) {
    if (i == leave_slot || alpha[i] == 0.0) continue;
    eta_idx_.push_back(i);
    eta_val_.push_back(alpha[i]);
  }
  eta_start_.push_back(static_cast<int>(eta_idx_.size()));
  ++update_count_;
  update_nnz_ = static_cast<long>(eta_idx_.size());
}

}  // namespace xplain::solver
