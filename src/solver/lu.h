// Simplex basis factorization: sparse LU with Forrest-Tomlin updates, a
// dense fallback for tiny bases, and hyper-sparse BTRAN.
//
// This is the basis engine behind the revised simplex.  The basis matrix B
// (one CSC column per basis slot) is kept in one of two representations:
//
//   * Sparse (the default): P B Q = L U with Markowitz-style pivot
//     selection — columns enter in increasing-sparsity order and, within a
//     column, the pivot row minimizes static row degree among candidates
//     within a threshold of the column's numerical maximum (threshold
//     partial pivoting).  The factorization is built left-looking (sparse
//     triangular solve per column with a depth-first reach, CSparse-style).
//     Pivots apply Forrest-Tomlin updates to U itself: the leaving column
//     is replaced by the entering column's partial FTRAN (the "spike"),
//     moved to the end of a dynamic triangular order, and the broken row is
//     eliminated with row operations recorded in a row-eta file.  Unlike
//     product-form etas, the update file grows with the ROW fill of each
//     update instead of the full spike, so long warm pivot runs (the
//     dp_gap re-solve storms) stay sparse.  An update whose new diagonal is
//     numerically degenerate is REJECTED (update() returns false) and the
//     caller refactorizes.  The U^T pass of BTRAN is hyper-sparse: when the
//     right-hand side has few nonzeros (unit rows in dual ratio tests,
//     phase-2 cost rows with few costed basics), a depth-first reach over
//     the row adjacency of U visits only the columns the solution can
//     touch instead of gathering all of U.
//
//   * Dense (m <= dense threshold, chosen by configure()): a dense LU with
//     partial pivoting and product-form eta updates.  The sampling loops
//     solve millions of LPs with a handful of rows each; for those the
//     sparse machinery's index juggling costs more than O(m^2) flops on a
//     contiguous matrix.
//
// The product-form eta path is also kept for the sparse representation
// (configure(..., forrest_tomlin=false)) as a differential baseline.
//
// Index spaces (shared with RevisedSimplex):
//   * "row"  = constraint row of the LpProblem, 0..m-1;
//   * "slot" = basis position (basis_[slot] is the variable basic in
//     constraint row `slot`), so column `slot` of B is the CSC column of
//     that variable.  FTRAN outputs and BTRAN inputs are slot-indexed;
//     FTRAN inputs and BTRAN outputs are row-indexed.  Product-form etas
//     live purely in slot space.
//   * "step" = pivot order of the factorization; Forrest-Tomlin row etas
//     and the dynamic triangular order live in step space, which is FIXED
//     per factorization (updates reorder steps, they never renumber them).
//
// Everything is deterministic — no randomization, no parallelism, and the
// hyper-sparse/dense-path switch depends only on deterministic nonzero
// counts — so solver results stay pure functions of the problem,
// preserving the repo's bitwise parallel determinism contract.
#pragma once

#include <vector>

namespace xplain::solver {

class LuFactorization {
 public:
  /// Chooses the representation and update strategy for subsequent
  /// factorize() calls: `dense` selects the dense tiny-basis path (which
  /// always uses product-form etas); otherwise `forrest_tomlin` selects FT
  /// updates over the product-form eta file.  Takes effect at the next
  /// factorize(); the active representation is never reshaped in place.
  void configure(bool dense, bool forrest_tomlin) {
    cfg_dense_ = dense;
    cfg_ft_ = forrest_tomlin;
  }

  /// Factorizes the m x m basis whose slot-k column is CSC column
  /// `basis_cols[k]` of (cp, ci, cx).  Returns false on numerical
  /// singularity; the previous factorization (and its update file) is left
  /// untouched so callers can keep operating on the stale representation.
  /// On success the update file is cleared.
  bool factorize(int m, const std::vector<int>& cp, const std::vector<int>& ci,
                 const std::vector<double>& cx,
                 const std::vector<int>& basis_cols);

  /// Solves B x = b in place: on entry `x` holds b (row-indexed), on exit
  /// the solution (slot-indexed).  Applies the update file.
  void ftran(std::vector<double>& x) const;

  /// Solves B^T y = c in place: on entry `y` holds c (slot-indexed), on
  /// exit the solution (row-indexed).  Applies the update file.  The U^T
  /// pass goes hyper-sparse when c has few nonzeros.
  void btran(std::vector<double>& y) const;

  /// Applies the basis change after a pivot in slot `leave_slot` with
  /// alpha = B^-1 A_enter (the FTRAN of the entering column, slot-indexed;
  /// the caller guarantees |alpha[leave_slot]| is an admissible pivot, and
  /// that this call directly follows the ftran() of the entering column —
  /// the Forrest-Tomlin spike is stashed there).  Returns false when the
  /// update is numerically rejected (degenerate new diagonal); the
  /// representation is then unusable and the caller MUST refactorize.
  bool update(int leave_slot, const std::vector<double>& alpha);

  /// Number of updates absorbed since the last successful factorize
  /// (== pivots applied without refactorizing).
  int update_count() const { return update_count_; }
  /// Total nonzeros in the update file — product-form eta entries, or
  /// Forrest-Tomlin row-eta plus spike entries — the accumulated-fill
  /// measure the refactorization triggers in SimplexOptions bound.
  long update_nnz() const { return update_nnz_; }
  /// Nonzeros in L + U (diagonal included) of the last factorization.
  long factor_nnz() const;

  /// Makes this object's published factorization (factors, dynamic U
  /// order, update file, representation) a copy of `src`'s, so later
  /// solves and updates behave bitwise as they would on `src`.  Only the
  /// active representation is copied, never `src`'s factorize/solve
  /// scratch: a pinned LP session keeps its start-basis factorization in a
  /// second object this way and restores it instead of refactorizing.
  void assign_factors(const LuFactorization& src);

 private:
  bool factorize_dense(int m, const std::vector<int>& cp,
                       const std::vector<int>& ci,
                       const std::vector<double>& cx,
                       const std::vector<int>& basis_cols);
  bool ft_update(int leave_slot, const std::vector<double>& alpha);
  void push_eta(int leave_slot, const std::vector<double>& alpha);
  void apply_etas_ftran(std::vector<double>& x) const;
  void apply_etas_btran(std::vector<double>& y) const;
  void ftran_dense(std::vector<double>& x) const;
  void btran_dense(std::vector<double>& y) const;
  void solve_ut(int nseeds) const;  // U^T pass on step_, dense or DFS reach
  int dfs(int row, int top, const std::vector<int>& lp,
          const std::vector<int>& li);

  int m_ = 0;

  // Mode requested by configure() / published by the last factorize().
  bool cfg_dense_ = false, cfg_ft_ = true;
  bool dense_active_ = false, ft_active_ = false;

  // L: unit lower triangular, stored by pivot step; entries are multipliers
  // (the implicit 1.0 pivot entry is not stored) with ORIGINAL row indices
  // (pinv_ maps original row -> pivot step).  Static across updates.
  std::vector<int> lp_, li_;
  std::vector<double> lx_;
  // U, stored by column in step space; entries' indices are steps EARLIER
  // in the dynamic triangular order, the diagonal is udiag_.  Column k
  // occupies ui_/ux_[ucolp_[k] .. ucolp_[k] + ulen_[k]); Forrest-Tomlin
  // spikes append fresh slices at the end (the stale slice is abandoned
  // until the next refactorization, which rebuilds the arrays anyway).
  std::vector<int> ui_;
  std::vector<double> ux_;
  std::vector<int> ucolp_, ulen_;
  std::vector<double> udiag_;
  // Row adjacency of U: urows_[r] lists the column steps holding an entry
  // at row step r (diagonal excluded) — drives both the FT row elimination
  // and the hyper-sparse BTRAN reach.  Maintained across updates.
  std::vector<std::vector<int>> urows_;
  // Dynamic triangular order: uorder_[p] = step at position p,
  // upos_ = its inverse.  Identity after factorize(); FT updates move the
  // respiked step to the last position.
  std::vector<int> uorder_, upos_;
  std::vector<int> pivrow_;    // step -> original constraint row
  std::vector<int> colorder_;  // step -> basis slot
  std::vector<int> sinv_;      // basis slot -> step (inverse of colorder_)
  std::vector<int> pinv_;      // original row -> step (-1 while factoring)

  // Forrest-Tomlin row-eta file (step space): eta e eliminates row
  // re_t_[e] with multipliers re_val_ against rows re_idx_ over
  // [re_start_[e], re_start_[e+1]).  FTRAN applies them oldest-first
  // between the L and U passes; BTRAN transposes them newest-first.
  std::vector<int> re_start_{0};
  std::vector<int> re_t_;
  std::vector<int> re_idx_;
  std::vector<double> re_val_;
  // Spike stash: ftran() records its step-space intermediate (after L and
  // row etas, before U) — exactly the respiked column of the next update.
  mutable std::vector<double> ftw_;
  mutable bool ftw_valid_ = false;

  // Product-form eta file (slot space; dense and non-FT sparse modes), flat
  // storage: eta e pivots slot eta_slot_[e] with pivot value eta_piv_[e]
  // and off-pivot entries eta_idx_/eta_val_[eta_start_[e]..eta_start_[e+1]).
  std::vector<int> eta_start_{0};
  std::vector<int> eta_slot_;
  std::vector<double> eta_piv_;
  std::vector<int> eta_idx_;
  std::vector<double> eta_val_;

  int update_count_ = 0;
  long update_nnz_ = 0;
  long fnnz_ = 0;  // nnz(L) + nnz(U) + m as of the last factorize

  // Dense representation: column-major m x m holding L (unit, below the
  // diagonal) and U in place, with LAPACK-style row-swap pivoting.
  std::vector<double> dmat_, bdmat_;
  std::vector<int> dipiv_, bdipiv_;

  // Factorization / solve scratch (kept for capacity reuse; every solver
  // instance is owned by one thread, so no sharing).
  std::vector<int> border_, bpinv_, bpivrow_, bcolorder_;
  std::vector<int> blp_, bli_, bup_, bui_;
  std::vector<double> blx_, bux_, budiag_;
  std::vector<int> xi_, stack_, pstack_, visited_, rdeg_;
  std::vector<double> xw_;
  std::vector<double> ftwork_;           // FT elimination row accumulator
  mutable std::vector<double> step_;     // step-space intermediate for solves
  mutable std::vector<int> hvis_, hstack_, hpos_, hord_;  // BTRAN reach
};

}  // namespace xplain::solver
