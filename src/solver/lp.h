// Linear / mixed-integer program container.
//
// This is the solver-facing representation every higher layer compiles down
// to (the modeling layer in `src/model` and the XPlain DSL compiler both
// target it). It plays the role Gurobi's model object plays for MetaOpt.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace xplain::solver {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { kMinimize, kMaximize };
enum class RowSense { kLe, kGe, kEq };

enum class Status {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kLimit,   // iteration / node / time limit hit; best-known returned
  kError,
};

const char* to_string(Status s);

/// A sparse LP/MILP: minimize or maximize obj'x subject to rows and bounds.
class LpProblem {
 public:
  struct Row {
    std::vector<std::pair<int, double>> coef;  // (column, coefficient)
    RowSense sense = RowSense::kLe;
    double rhs = 0.0;
    std::string name;
  };

  Sense sense = Sense::kMinimize;

  /// Adds a column; returns its index.
  int add_col(double lo, double hi, double obj, bool integer = false,
              std::string name = {});

  /// Adds a row; duplicate column entries are merged.
  void add_row(std::vector<std::pair<int, double>> coef, RowSense sense,
               double rhs, std::string name = {});

  int num_cols() const { return static_cast<int>(obj_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }
  bool is_mip() const;

  double obj(int j) const { return obj_[j]; }
  double lo(int j) const { return lo_[j]; }
  double hi(int j) const { return hi_[j]; }
  bool integer(int j) const { return integer_[j] != 0; }
  /// The column's given name, or a generated "c<j>" placeholder.  Default
  /// names are materialized lazily: the sampling hot loops build thousands
  /// of throwaway models whose names nobody reads.
  std::string col_name(int j) const {
    return col_names_[j].empty() ? "c" + std::to_string(j) : col_names_[j];
  }
  const Row& row(int i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Pre-sizes the column/row storage (model builders that know their
  /// shape avoid reallocation churn).
  void reserve(int cols, int rows) {
    obj_.reserve(cols);
    lo_.reserve(cols);
    hi_.reserve(cols);
    integer_.reserve(cols);
    col_names_.reserve(cols);
    rows_.reserve(rows);
  }

  void set_obj(int j, double c) { obj_[j] = c; }
  void set_bounds(int j, double lo, double hi) {
    lo_[j] = lo;
    hi_[j] = hi;
  }
  /// Moves a row's right-hand side in place (coefficients and sense stay).
  /// A basis from a previous solve stays warm-startable across rhs moves
  /// just as across bound moves (see solve_lp; LpSession is the resident
  /// form for loops that only move rhs).
  void set_row_rhs(int i, double rhs) { rows_[i].rhs = rhs; }

  /// Whole bound vectors, for callers (branch-and-bound) that snapshot and
  /// restore bounds without copying the rows.
  const std::vector<double>& lower_bounds() const { return lo_; }
  const std::vector<double>& upper_bounds() const { return hi_; }
  void set_all_bounds(const std::vector<double>& lo,
                      const std::vector<double>& hi) {
    lo_ = lo;  // copy-assign: reuses the existing buffers' capacity
    hi_ = hi;
  }

  /// Objective value of a point (no feasibility check).
  double eval_obj(const std::vector<double>& x) const;

  /// True if `x` satisfies all rows and bounds to within `tol`
  /// (and integrality for integer columns).
  bool feasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// Human-readable dump (small models only; used in error paths/tests).
  std::string to_string() const;

 private:
  std::vector<double> obj_, lo_, hi_;
  std::vector<std::uint8_t> integer_;
  std::vector<std::string> col_names_;
  std::vector<Row> rows_;
};

/// A simplex basis over the columns of an LpProblem plus one slack per row
/// (slack of row i has variable index num_cols + i).  Because the revised
/// simplex handles column bounds natively, a basis stays meaningful across
/// bound changes on the same rows — that is what makes warm starts work.
struct Basis {
  std::vector<int> basic;               // size num_rows: variable basic in row i
  std::vector<std::uint8_t> at_upper;   // size num_cols + num_rows: nonbasic
                                        // variable rests at its upper bound
  bool empty() const { return basic.empty() && at_upper.empty(); }
};

struct LpSolution {
  Status status = Status::kError;
  double obj = 0.0;
  std::vector<double> x;  // primal values, one per column
  std::vector<double> y;  // dual values, one per row (sign: for the stated
                          // sense; empty for MILP solves)
  long iterations = 0;
  /// Successful basis refactorizations performed during the solve
  /// (meaningful on kOptimal; diagnostic for the SimplexOptions refactor
  /// triggers).  A warm solve_lp counts the factorization of the basis it
  /// installs; restoring an LpSession's pinned state is not a
  /// refactorization, so a pinned solve counts only what its pivots and
  /// any cold restart trigger (0 for a typical few-pivot re-solve).
  long refactorizations = 0;
  /// Optimal basis (populated on kOptimal); feed back into solve_lp as a
  /// warm start after bound tightenings.
  Basis basis;
};

/// LP accounting, incremented by every solve_lp and LpSession::solve call
/// (LpSession::pin is not a solve).  Counters are
/// *thread-inclusive*: each thread accumulates its own solves without
/// synchronization and flushes them to a process-wide retired total when it
/// exits, so on any thread the delta of lp_counters() across a region is
/// exactly the work performed by that thread plus any worker pools it
/// joined inside the region (util::parallel_chunks hands each worker's
/// tallies to the spawning thread at join).  That makes per-job deltas
/// exact even under concurrent Engine workers, and process-wide totals
/// exact whenever no pool is mid-flight.  The one limitation: a thread
/// never sees work still in flight on a thread it did not spawn through
/// parallel_chunks — e.g. a hand-rolled std::thread's tallies reach the
/// retired total (and other threads' view) only when that thread exits.
struct LpCounters {
  long solves = 0;
  long iterations = 0;
  long warm_solves = 0;  // solves that started from a caller basis
  /// Reduced costs evaluated by primal pricing (both Dantzig full scans
  /// and partial-pricing bucket passes + refill scans) — the per-pivot
  /// cost partial pricing exists to shrink.
  long columns_priced = 0;
  /// Partial-pricing candidate-bucket refills (each one is a full scan;
  /// zero on LPs within SimplexOptions::partial_pricing_min_cols).
  long candidate_refills = 0;
};
LpCounters lp_counters();

/// The counter vocabulary: every LpCounters member and the key reports
/// write it under, in report order.  The thread tallies, the pool hand-off,
/// lp_counters() and the bench reports iterate this table, so a new counter
/// is one member above, one row here, and its increment site.
struct LpCounterField {
  long LpCounters::*member;
  const char* key;
};
inline constexpr LpCounterField kLpCounterFields[] = {
    {&LpCounters::solves, "lp_solves"},
    {&LpCounters::iterations, "lp_iterations"},
    {&LpCounters::warm_solves, "lp_warm_solves"},
    {&LpCounters::columns_priced, "lp_columns_priced"},
    {&LpCounters::candidate_refills, "lp_candidate_refills"},
};

/// The report key of one LpCounters member (its kLpCounterFields row).
constexpr const char* lp_counter_key(long LpCounters::*member) {
  for (const LpCounterField& f : kLpCounterFields)
    if (f.member == member) return f.key;
  return "";
}

}  // namespace xplain::solver
