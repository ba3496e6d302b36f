// Simplex basis factorization: sparse LU with product-form eta updates, a
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
//     The U^T pass of BTRAN is hyper-sparse: when the right-hand side has
//     few nonzeros (unit rows in dual ratio tests, phase-2 cost rows with
//     few costed basics), a depth-first reach over the row adjacency of U
//     visits only the columns the solution can touch instead of gathering
//     all of U.
//
//   * Dense (m <= dense threshold, chosen by configure()): dense-elimination
//     arithmetic — an m x m LU with partial pivoting in natural slot order
//     — with packed storage.  The elimination runs on an m x m scratch
//     matrix, but only the factors' nonzeros are published (per column, U
//     above the diagonal and L below it, in ascending row order), so
//     FTRAN/BTRAN cost O(m + nnz + eta nnz) instead of O(m^2).  The
//     sampling-loop bases this path serves are tiny (m ~ 23) and almost
//     empty: ~18 off-diagonal LU nonzeros out of ~520 slots.  The solves
//     visit the surviving terms in the dense loops' order, so only skipped
//     exact-zero products (which can at most flip the sign of a zero)
//     separate them from the m x m loops.
//
// Both representations absorb a pivot the same way: update() appends one
// product-form eta (the entering column's FTRAN, pivoting in the leaving
// slot) to a flat eta file, which FTRAN replays oldest-first after the
// factor solves and BTRAN newest-first before them.  The factors never
// change between factorizations.
//
// Index spaces (shared with RevisedSimplex):
//   * "row"  = constraint row of the LpProblem, 0..m-1;
//   * "slot" = basis position (basis_[slot] is the variable basic in
//     constraint row `slot`), so column `slot` of B is the CSC column of
//     that variable.  FTRAN outputs and BTRAN inputs are slot-indexed;
//     FTRAN inputs and BTRAN outputs are row-indexed.  Etas live purely in
//     slot space.
//   * "step" = pivot order of the factorization; L and U are stored by step.
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
  /// Chooses the representation for subsequent factorize() calls: `dense`
  /// selects the dense tiny-basis path, otherwise the sparse one.  Takes
  /// effect at the next factorize(); the active representation is never
  /// reshaped in place.
  void configure(bool dense) { cfg_dense_ = dense; }

  /// Factorizes the m x m basis whose slot-k column is CSC column
  /// `basis_cols[k]` of (cp, ci, cx).  Returns false on numerical
  /// singularity; the previous factorization (and its eta file) is left
  /// untouched so callers can keep operating on the stale representation.
  /// On success the eta file is cleared.
  bool factorize(int m, const std::vector<int>& cp, const std::vector<int>& ci,
                 const std::vector<double>& cx,
                 const std::vector<int>& basis_cols);

  /// Solves B x = b in place: on entry `x` holds b (row-indexed), on exit
  /// the solution (slot-indexed).  Applies the eta file.
  void ftran(std::vector<double>& x) const;

  /// Solves B^T y = c in place: on entry `y` holds c (slot-indexed), on
  /// exit the solution (row-indexed).  Applies the eta file.  The U^T
  /// pass goes hyper-sparse when c has few nonzeros.
  void btran(std::vector<double>& y) const;

  /// Applies the basis change after a pivot in slot `leave_slot` with
  /// alpha = B^-1 A_enter (the FTRAN of the entering column, slot-indexed;
  /// the caller guarantees |alpha[leave_slot]| is an admissible pivot):
  /// appends the eta of alpha's nonzeros, exact zeros of either sign
  /// dropped.
  void update(int leave_slot, const std::vector<double>& alpha);

  /// Appends the eta update(rows[0], alpha) would: rows/vals hold the
  /// pivot (rows[0], alpha[rows[0]]) first, then alpha's other nonzeros in
  /// ascending row order, n entries in all.
  void push_packed_eta(const int* rows, const double* vals, int n);

  /// Number of updates absorbed since the last successful factorize
  /// (== pivots applied without refactorizing).
  int update_count() const { return update_count_; }
  /// Off-pivot nonzeros in the eta file — the accumulated-fill measure the
  /// refactorization triggers in SimplexOptions bound.
  long update_nnz() const { return update_nnz_; }
  /// Nonzeros in L + U (diagonal included) of the last sparse
  /// factorization; m^2 for a dense one whatever its packed size, because
  /// this is the base of SimplexOptions::refactor_fill_ratio and the dense
  /// path's refactorization points must not depend on its storage.
  long factor_nnz() const { return fnnz_; }

  /// Makes this object's published factorization (factors, eta file,
  /// representation) a copy of `src`'s, so later solves and updates behave
  /// bitwise as they would on `src`.  Only the active representation is
  /// copied, never `src`'s factorize/solve scratch: a pinned LP session
  /// keeps its start-basis factorization in a second object this way and
  /// restores it instead of refactorizing.
  void assign_factors(const LuFactorization& src);

 private:
  bool factorize_dense(int m, const std::vector<int>& cp,
                       const std::vector<int>& ci,
                       const std::vector<double>& cx,
                       const std::vector<int>& basis_cols);
  void clear_etas();
  void apply_etas_ftran(std::vector<double>& x) const;
  void apply_etas_btran(std::vector<double>& y) const;
  void ftran_dense(std::vector<double>& x) const;
  void btran_dense(std::vector<double>& y) const;
  void solve_u() const;             // U pass on step_, backward scatter
  void solve_ut(int nseeds) const;  // U^T pass on step_, gather or DFS reach
  int dfs(int row, int top, const std::vector<int>& lp,
          const std::vector<int>& li);

  int m_ = 0;

  // Representation requested by configure() / published by factorize().
  bool cfg_dense_ = false;
  bool dense_active_ = false;

  // L: unit lower triangular, stored by pivot step; entries are multipliers
  // (the implicit 1.0 pivot entry is not stored) with ORIGINAL row indices
  // (pinv_ maps original row -> pivot step).  The dense path stores its L
  // here too, with row indices in the row order after dipiv_'s swaps
  // (== step), and its U in the U arrays below.
  std::vector<int> lp_, li_;
  std::vector<double> lx_;
  // U, stored by column in step space: column k holds ui_/ux_[up_[k] ..
  // up_[k+1]), every index an earlier step; the diagonal is udiag_.
  std::vector<int> up_, ui_;
  std::vector<double> ux_;
  std::vector<double> udiag_;
  // Row adjacency of the sparse U, for the hyper-sparse BTRAN reach: row
  // step r has entries in columns urc_[urp_[r] .. urp_[r+1]), ascending.
  std::vector<int> urp_, urc_;
  std::vector<int> pivrow_;    // step -> original constraint row
  std::vector<int> colorder_;  // step -> basis slot
  std::vector<int> pinv_;      // original row -> step (-1 while factoring)

  // Product-form eta file (slot space), flat storage: eta e pivots slot
  // eta_slot_[e] with pivot value eta_piv_[e] and off-pivot entries
  // eta_idx_/eta_val_[eta_start_[e]..eta_start_[e+1]).
  std::vector<int> eta_start_{0};
  std::vector<int> eta_slot_;
  std::vector<double> eta_piv_;
  std::vector<int> eta_idx_;
  std::vector<double> eta_val_;

  int update_count_ = 0;
  long update_nnz_ = 0;
  long fnnz_ = 0;  // nnz(L) + nnz(U) + m (m^2 when dense), see factor_nnz

  // Dense representation: the factors live in the packed L/U arrays above;
  // dipiv_ holds the LAPACK-style row-swap sequence of the elimination.
  // bdmat_ is the column-major m x m elimination scratch.
  std::vector<double> bdmat_;
  std::vector<int> dipiv_, bdipiv_;

  // Factorization / solve scratch (kept for capacity reuse; every solver
  // instance is owned by one thread, so no sharing).
  std::vector<int> border_, bpinv_, bpivrow_, bcolorder_;
  std::vector<int> blp_, bli_, bup_, bui_;
  std::vector<double> blx_, bux_, budiag_;
  std::vector<int> xi_, stack_, pstack_, visited_, rdeg_;
  std::vector<double> xw_;
  mutable std::vector<double> step_;     // step-space intermediate for solves
  mutable std::vector<int> hvis_, hstack_, hpos_, hord_;  // BTRAN reach
};

}  // namespace xplain::solver
