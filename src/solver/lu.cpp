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
  // factorization (and its eta file) untouched.
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

  // Success: publish the new factors, build U's row adjacency, clear the
  // eta file.
  m_ = m;
  lp_.swap(blp_);
  li_.swap(bli_);
  lx_.swap(blx_);
  up_.swap(bup_);
  ui_.swap(bui_);
  ux_.swap(bux_);
  udiag_.swap(budiag_);
  pivrow_.swap(bpivrow_);
  colorder_.swap(bcolorder_);
  pinv_.swap(bpinv_);
  // Counting sort of U's entries by row; columns are visited in ascending
  // step order, so each row lists its columns ascending (rdeg_ is free
  // again and serves as the fill cursor).
  urp_.assign(m + 1, 0);
  for (int q = 0; q < up_[m]; ++q) ++urp_[ui_[q] + 1];
  for (int r = 0; r < m; ++r) urp_[r + 1] += urp_[r];
  urc_.resize(up_[m]);
  rdeg_.assign(urp_.begin(), urp_.end() - 1);
  for (int k = 0; k < m; ++k)
    for (int q = up_[k]; q < up_[k + 1]; ++q) urc_[rdeg_[ui_[q]]++] = k;
  hvis_.assign(m, 0);
  hstack_.resize(m);
  hpos_.resize(m);
  clear_etas();
  fnnz_ = static_cast<long>(li_.size() + ui_.size()) + m;
  dense_active_ = false;
  return true;
}

bool LuFactorization::factorize_dense(int m, const std::vector<int>& cp,
                                      const std::vector<int>& ci,
                                      const std::vector<double>& cx,
                                      const std::vector<int>& basis_cols) {
  // Column-major dense elimination in scratch; columns stay in natural slot
  // order (no sparsity ordering at these sizes), so slot == step throughout.
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
  // Success: publish the factors packed by nonzero pattern — per column,
  // U above the diagonal and L's multipliers below it, ascending rows (the
  // order the dense loops visited them in), exact zeros dropped.
  m_ = m;
  dipiv_.swap(bdipiv_);
  lp_.assign(1, 0);
  li_.clear();
  lx_.clear();
  up_.assign(1, 0);
  ui_.clear();
  ux_.clear();
  udiag_.resize(m);
  for (int k = 0; k < m; ++k) {
    const double* col = bdmat_.data() + static_cast<std::size_t>(k) * m;
    for (int r = 0; r < k; ++r) {
      if (col[r] == 0.0) continue;
      ui_.push_back(r);
      ux_.push_back(col[r]);
    }
    up_.push_back(static_cast<int>(ui_.size()));
    udiag_[k] = col[k];
    for (int r = k + 1; r < m; ++r) {
      if (col[r] == 0.0) continue;
      li_.push_back(r);
      lx_.push_back(col[r]);
    }
    lp_.push_back(static_cast<int>(li_.size()));
  }
  clear_etas();
  fnnz_ = static_cast<long>(m) * m;  // the dense elimination's size
  dense_active_ = true;
  return true;
}

void LuFactorization::clear_etas() {
  eta_start_.assign(1, 0);
  eta_slot_.clear();
  eta_piv_.clear();
  eta_idx_.clear();
  eta_val_.clear();
  update_count_ = 0;
  update_nnz_ = 0;
}

void LuFactorization::assign_factors(const LuFactorization& src) {
  m_ = src.m_;
  cfg_dense_ = src.cfg_dense_;
  dense_active_ = src.dense_active_;
  update_count_ = src.update_count_;
  update_nnz_ = src.update_nnz_;
  fnnz_ = src.fnnz_;
  eta_start_ = src.eta_start_;
  eta_slot_ = src.eta_slot_;
  eta_piv_ = src.eta_piv_;
  eta_idx_ = src.eta_idx_;
  eta_val_ = src.eta_val_;
  // Both representations keep their factors in the packed L/U arrays.
  lp_ = src.lp_;
  li_ = src.li_;
  lx_ = src.lx_;
  up_ = src.up_;
  ui_ = src.ui_;
  ux_ = src.ux_;
  udiag_ = src.udiag_;
  if (dense_active_) {
    dipiv_ = src.dipiv_;
    return;
  }
  urp_ = src.urp_;
  urc_ = src.urc_;
  pivrow_ = src.pivrow_;
  colorder_ = src.colorder_;
  pinv_ = src.pinv_;
  // BTRAN reach scratch: hvis_ must be m-sized and all-zero on entry (it
  // stays all-zero between calls, so only a size change needs a reset).
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

// U pass over step_ (in place): backward, column scatter.
void LuFactorization::solve_u() const {
  for (int k = m_ - 1; k >= 0; --k) {
    const double zk = step_[k] / udiag_[k];
    step_[k] = zk;
    if (zk == 0.0) continue;
    for (int q = up_[k]; q < up_[k + 1]; ++q) step_[ui_[q]] -= ux_[q] * zk;
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
  solve_u();
  // Scatter to slot space, then replay the etas oldest-first.
  for (int k = 0; k < m_; ++k) x[colorder_[k]] = step_[k];
  apply_etas_ftran(x);
}

// U^T pass over step_ (in place): either a full forward gather, or — when
// the rhs pattern is hyper-sparse — a depth-first reach over the row
// adjacency visiting only the columns the solution can touch.  Reached
// nodes gather their column entries in the exact storage order the full
// pass uses, so both paths produce bitwise identical nonzeros (unreached
// components are exact zeros).  The dense path always gathers (nseeds = m).
void LuFactorization::solve_ut(int nseeds) const {
  if (static_cast<long>(nseeds) * kHyperSparseFactor >= m_) {
    for (int k = 0; k < m_; ++k) {
      double acc = step_[k];
      for (int q = up_[k]; q < up_[k + 1]; ++q) acc -= ux_[q] * step_[ui_[q]];
      step_[k] = acc / udiag_[k];
    }
    return;
  }
  // Reach: node r feeds every column of its U row; reverse DFS postorder
  // is a topological order (dependencies first).  hvis_ marks are restored
  // to all-zero on the way out.
  hord_.clear();
  for (int s = 0; s < m_; ++s) {
    if (step_[s] == 0.0 || hvis_[s] != 0) continue;
    int head = 0;
    hstack_[0] = s;
    hpos_[0] = urp_[s];
    hvis_[s] = 1;
    while (head >= 0) {
      const int r = hstack_[head];
      const int end = urp_[r + 1];
      bool descended = false;
      for (int q = hpos_[head]; q < end; ++q) {
        const int c = urc_[q];
        if (hvis_[c] != 0) continue;
        hpos_[head] = q + 1;
        hvis_[c] = 1;
        ++head;
        hstack_[head] = c;
        hpos_[head] = urp_[c];
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
    for (int q = up_[k]; q < up_[k + 1]; ++q) acc -= ux_[q] * step_[ui_[q]];
    step_[k] = acc / udiag_[k];
    hvis_[k] = 0;
  }
}

void LuFactorization::btran(std::vector<double>& y) const {
  if (dense_active_) {
    btran_dense(y);
    return;
  }
  apply_etas_btran(y);
  // Gather to step space, counting the rhs pattern for the U^T path choice.
  step_.resize(m_);
  int nseeds = 0;
  for (int k = 0; k < m_; ++k) {
    const double v = y[colorder_[k]];
    step_[k] = v;
    if (v != 0.0) ++nseeds;
  }
  solve_ut(nseeds);
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

// The dense solves replay the dense loops over the packed factors: only
// exact-zero factor terms are skipped, in the same order, so results match
// the m x m loops bitwise up to the sign of a zero.
void LuFactorization::ftran_dense(std::vector<double>& x) const {
  step_.resize(m_);
  for (int k = 0; k < m_; ++k) step_[k] = x[k];
  for (int k = 0; k < m_; ++k) std::swap(step_[k], step_[dipiv_[k]]);
  // L forward (unit diagonal, multipliers below the diagonal).
  for (int k = 0; k < m_; ++k) {
    const double v = step_[k];
    if (v == 0.0) continue;
    for (int p = lp_[k]; p < lp_[k + 1]; ++p) step_[li_[p]] -= lx_[p] * v;
  }
  solve_u();
  // Dense columns are in natural slot order: step == slot.
  for (int k = 0; k < m_; ++k) x[k] = step_[k];
  apply_etas_ftran(x);
}

void LuFactorization::btran_dense(std::vector<double>& y) const {
  apply_etas_btran(y);
  step_.resize(m_);
  for (int k = 0; k < m_; ++k) step_[k] = y[k];
  solve_ut(m_);
  // L^T backward.
  for (int k = m_ - 1; k >= 0; --k) {
    double acc = step_[k];
    for (int p = lp_[k]; p < lp_[k + 1]; ++p) acc -= lx_[p] * step_[li_[p]];
    step_[k] = acc;
  }
  // Undo the pivoting row swaps in reverse order: y = P^T w.
  for (int k = m_ - 1; k >= 0; --k) std::swap(step_[k], step_[dipiv_[k]]);
  for (int k = 0; k < m_; ++k) y[k] = step_[k];
}

void LuFactorization::update(int leave_slot, const std::vector<double>& alpha) {
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

void LuFactorization::push_packed_eta(const int* rows, const double* vals,
                                      int n) {
  eta_slot_.push_back(rows[0]);
  eta_piv_.push_back(vals[0]);
  eta_idx_.insert(eta_idx_.end(), rows + 1, rows + n);
  eta_val_.insert(eta_val_.end(), vals + 1, vals + n);
  eta_start_.push_back(static_cast<int>(eta_idx_.size()));
  ++update_count_;
  update_nnz_ = static_cast<long>(eta_idx_.size());
}

}  // namespace xplain::solver
