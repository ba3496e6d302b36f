#include "solver/simplex.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "solver/lu.h"
#include "util/parallel.h"
#include "util/logging.h"

namespace xplain::solver {

namespace {

// Thread-inclusive LP accounting (see LpCounters in lp.h): the hot path
// bumps plain thread_local longs — no atomic traffic per solve.  Tallies
// flow UP the spawn tree: a util::parallel_chunks worker hands its counts
// to the spawning thread at join (the pool-accumulator hook below), so a
// thread's counters include every pool it ran, transitively — that is what
// makes per-job counter deltas exact even when concurrent Engine/batch
// workers each run their own inner pools.  Threads not spawned by
// parallel_chunks flush to the retired atomics when they exit.
//
// Concurrency note for the static-analysis layer: the retired totals are
// monotone relaxed atomics on purpose — there is no mutex and nothing to
// annotate GUARDED_BY.  lp_counters() sums them with the CALLING thread's
// own tallies, so a concurrent exiting thread can only make a snapshot
// conservatively stale, never torn; per-region deltas on one thread are
// exact (lp.h).  TSan checks the exit-flush handoff; clang thread-safety
// has no obligations here.
constexpr std::size_t kNumLpCounters = std::size(kLpCounterFields);

std::atomic<long> g_retired[kNumLpCounters];

struct ThreadLpCounters : LpCounters {
  ~ThreadLpCounters() {
    for (std::size_t i = 0; i < kNumLpCounters; ++i)
      g_retired[i].fetch_add(this->*kLpCounterFields[i].member,
                             std::memory_order_relaxed);
  }
};

thread_local ThreadLpCounters t_lp;

void capture_thread_lp(std::vector<long>& out) {
  out.resize(kNumLpCounters);
  for (std::size_t i = 0; i < kNumLpCounters; ++i) {
    long& tally = t_lp.*kLpCounterFields[i].member;
    out[i] = tally;
    tally = 0;  // exit flushes 0
  }
}

void absorb_thread_lp(const std::vector<long>& in) {
  for (std::size_t i = 0; i < kNumLpCounters; ++i)
    t_lp.*kLpCounterFields[i].member += in[i];
}

// simplex.cpp's object file always links (solve_lp is referenced), so this
// initializer reliably wires the hook before any pool runs.
const bool g_lp_hook_registered =
    (util::register_pool_accumulator(capture_thread_lp, absorb_thread_lp),
     true);

// Variable status.  Nonbasic variables rest at a bound (or at 0 when free);
// fixed variables (lo == hi) are nonbasic-at-lower and never priced.
enum class VStat : std::uint8_t { kBasic, kAtLower, kAtUpper, kFree };

// Allocated bytes a session's pivot-path memo may hold (its three arenas'
// capacities).  The solve that finds it full finishes unrecorded, and the
// next solve starts the tree afresh in the same arenas.
constexpr std::size_t kPivotMemoBytes = 256 * 1024;

// A pinned LpSession's pivot-path memo: a tree rooted at the pinned basis
// whose edges are dual-repair steps, keyed by the leaving row and the side
// of the bound it violates.  A session's bounds, costs and columns never
// move, so the basis and factorization after k repair pivots are functions
// of the pinned basis and the first k keys alone, and so is everything a
// node stores: the entering column, its FTRAN column alpha, and the
// pricing verdict of the primal check after the repair.  Only the leaving
// row's choice and the x update depend on the rhs, and a replayed step
// computes just those.
//
// Node 0 is the root (the pinned basis).  Every other node holds the step
// that reaches it and the step's alpha entries [begin, end) in the flat
// arenas: the pivot (leaving row, alpha there) first, then every other
// nonzero in row order — the layout of the product-form eta the step's
// basis update appends (LuFactorization::push_packed_eta).
//
// A full memo restarts rather than freezes: the sampling loops move on
// from one seed's slices to the next, and a frozen tree would keep only the
// paths of the first.
class PivotMemo {
 public:
  struct Node {                // 32 bytes
    std::int32_t key = -1;     // 2 * leaving row + (it left below its bound)
    std::int32_t enter = -1;   // entering column; -1: none (dual unbounded)
    std::int32_t child = -1;   // first child; children chain by `sibling`
    std::int32_t sibling = -1;
    std::int32_t begin = 0, end = 0;
    // The primal check after a repair that ends here, once it has proved
    // the basis optimal without a pivot: columns priced (-1: not known)
    // and candidate refills.
    std::int32_t priced = -1;
    std::int32_t refills = 0;
  };

  /// Drops every path, keeping the arenas' capacity; `root` keeps a root
  /// node (a warm pin has one).
  void reset(bool root) {
    nodes_.clear();
    rows_.clear();
    vals_.clear();
    full_ = false;
    if (root && reserve(0)) nodes_.emplace_back();
  }

  /// An add() found the budget spent since the last reset().
  bool full() const { return full_; }

  const Node& node(int i) const { return nodes_[i]; }
  const std::vector<std::int32_t>& rows() const { return rows_; }
  const std::vector<double>& vals() const { return vals_; }

  /// The child of `parent` reached by `key`, or -1.
  int find(int parent, int key) const {
    for (int c = nodes_[parent].child; c >= 0; c = nodes_[c].sibling)
      if (nodes_[c].key == key) return c;
    return -1;
  }

  /// Records a step below `parent`: `enter` with its FTRAN column `alpha`
  /// pivoting on row `leave`, or enter = -1 for the dual-unbounded verdict
  /// (alpha unused).  Returns the new node, or -1 when the budget is spent.
  int add(int parent, int key, int enter, int leave,
          const std::vector<double>& alpha) {
    std::size_t entries = 0;
    if (enter >= 0)
      for (std::size_t i = 0; i < alpha.size(); ++i)
        entries += i == static_cast<std::size_t>(leave) || alpha[i] != 0.0;
    if (!reserve(entries)) {
      full_ = true;
      return -1;
    }
    Node n;
    n.key = key;
    n.enter = enter;
    n.sibling = nodes_[parent].child;
    n.begin = static_cast<std::int32_t>(rows_.size());
    if (enter >= 0) {
      push(leave, alpha[leave]);
      for (std::size_t i = 0; i < alpha.size(); ++i)
        if (i != static_cast<std::size_t>(leave) && alpha[i] != 0.0)
          push(static_cast<int>(i), alpha[i]);
    }
    n.end = static_cast<std::int32_t>(rows_.size());
    nodes_.push_back(n);
    const int id = static_cast<int>(nodes_.size()) - 1;
    nodes_[parent].child = id;
    return id;
  }

  void set_verdict(int i, long priced, long refills) {
    nodes_[i].priced = static_cast<std::int32_t>(priced);
    nodes_[i].refills = static_cast<std::int32_t>(refills);
  }

 private:
  void push(int row, double val) {
    rows_.push_back(row);
    vals_.push_back(val);
  }

  // Makes room for one more node and `entries` more alpha entries.  Each
  // short arena doubles, or takes what the budget has left; false when
  // even the exact need does not fit.  Budgeting capacity rather than size
  // is what keeps a doubling from overshooting it.
  bool reserve(std::size_t entries) {
    std::size_t room = kPivotMemoBytes - bytes();
    const auto grow = [&room](std::size_t& cap, std::size_t need,
                              std::size_t unit) {
      if (need <= cap) return true;
      const std::size_t most = cap + room / unit;
      if (need > most) return false;
      const std::size_t to = std::min(std::max(need, 2 * cap), most);
      room -= (to - cap) * unit;
      cap = to;
      return true;
    };
    std::size_t node_cap = nodes_.capacity(), entry_cap = rows_.capacity();
    if (!grow(node_cap, nodes_.size() + 1, sizeof(Node)) ||
        !grow(entry_cap, rows_.size() + entries,
              sizeof(std::int32_t) + sizeof(double)))
      return false;
    nodes_.reserve(node_cap);
    rows_.reserve(entry_cap);
    vals_.reserve(entry_cap);
    return true;
  }

  std::size_t bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           rows_.capacity() * sizeof(std::int32_t) +
           vals_.capacity() * sizeof(double);
  }

  std::vector<Node> nodes_;
  std::vector<std::int32_t> rows_;
  std::vector<double> vals_;
  bool full_ = false;
};
static_assert(sizeof(PivotMemo::Node) == 32);

/// Bounded-variable revised simplex over the standardized system
///   A x + I s = b,   lo <= (x, s) <= hi,   minimize c'x,
/// with one slack per row (Le: s in [0, inf), Ge: s in (-inf, 0],
/// Eq: s fixed at 0).  Columns are stored sparsely (CSC); the basis is an
/// LU factorization (solver/lu.h: sparse, or dense for tiny bases) that
/// absorbs each pivot as one product-form eta, with periodic
/// refactorization.
class RevisedSimplex {
 public:
  /// Binds the solver to a problem and compiles it (CSC columns, costs,
  /// bounds, rhs); drops any pinned basis.  Instances are reused
  /// (thread_local in solve_lp, one per LpSession) so the dozens of
  /// internal buffers keep their capacity across the tiny back-to-back
  /// solves the sampling loops issue.
  void load(const LpProblem& p, const SimplexOptions& opts) {
    p_ = &p;
    opts_ = &opts;
    pin_.warm = false;
    pin_.refactor_calls = 0;
    at_pin_ = false;
    lu_steps_ = -1;
    memo_.reset(false);
    build();
  }

  /// Moves a compiled row rhs (the structure, and with it any pinned
  /// basis state, is rhs-independent).
  void set_rhs(int i, double rhs) { b_[i] = rhs; }

  /// Installs `start` once and keeps the result for every later run(nullptr)
  /// (see LpSession::pin).  Returns true when those runs start warm.
  bool pin(const Basis& start);

  /// One solve.  `warm` non-null: install that basis; null: restore the
  /// pinned basis if any, else start cold.  Only a restored pin walks the
  /// pivot-path memo.
  LpSolution run(const Basis* warm);

  /// Memo steps served since load() (LpSession::replayed_pivots).
  long replayed() const { return replayed_; }

 private:
  enum class Step { kOptimal, kUnbounded, kLimit, kError };

  void build();
  void begin_solve();
  void add_artificial(int row, double sign);
  bool factorize();
  bool should_refactor() const;
  void set_nonbasic_value(int j);
  void compute_basic_values();
  void ftran(int j, std::vector<double>& out) const;  // out = B^-1 A_j
  void btran_costs(const std::vector<double>& cost,
                   std::vector<double>& y) const;     // y = c_B' B^-1
  void btran_unit(int row, std::vector<double>& out) const;  // e_row' B^-1
  double reduced_cost(int j, const std::vector<double>& y,
                      const std::vector<double>& cost) const;
  void swap_basic(int enter, int leave_row);
  void pivot(int enter, int leave_row, const std::vector<double>& alpha);
  void refactorize();

  double violation(int j, const std::vector<double>& cost) const;
  int price_full(const std::vector<double>& cost) const;
  int price_partial(const std::vector<double>& cost);
  int refill_candidates(const std::vector<double>& cost);

  Step primal(const std::vector<double>& cost, long budget);
  Step dual_repair(long budget);
  void replay(int node, int leave, bool below);
  void materialize();
  Step repaired_primal(long budget);
  bool warm_install(const Basis& warm);
  bool restore_pin();
  bool dual_feasible(const std::vector<double>& y) const;

  LpSolution extract();
  void export_basis(LpSolution& sol) const;

  bool fixed(int j) const { return lo_[j] == hi_[j]; }

  const LpProblem* p_ = nullptr;
  const SimplexOptions* opts_ = nullptr;

  // Standardized problem (min sense).
  int m_ = 0;        // rows
  int nstruct_ = 0;  // original columns
  int nreal_ = 0;    // nstruct_ + m_ (structural + slacks)
  int ntotal_ = 0;   // nreal_ + artificials
  std::vector<int> cp_;        // CSC column pointers (ntotal_ + 1)
  std::vector<int> ci_;        // CSC row indices
  std::vector<double> cx_;     // CSC values
  std::vector<double> cost_;   // phase-2 cost (min sense)
  std::vector<double> lo_, hi_;
  std::vector<double> b_;
  std::vector<int> art_row_;   // row of each artificial (index - nreal_)
  double obj_scale_ = 1.0;

  // Simplex state.
  std::vector<int> basis_;     // size m_: variable basic in row i
  std::vector<VStat> stat_;    // size ntotal_
  std::vector<double> x_;      // size ntotal_
  LuFactorization lu_;         // sparse basis factorization + eta file
  long iters_ = 0;
  bool bland_ = false;
  bool factorize_failed_ = false;
  long degen_run_ = 0;
  int pivots_since_refactor_ = 0;
  int refactor_calls_ = 0;     // attempts (drives the fail_refactor_at hook)
  long refactorizations_ = 0;  // successes (reported in LpSolution)

  // Pinned start (LpSession::pin): warm_install's rhs-independent result
  // for one fixed basis — snapped nonbasic statuses and values, the
  // published factorization, the phase-2 duals and the dual-feasibility
  // verdict — which restore_pin() puts back at the start of every solve.
  struct Pinned {
    bool warm = false;       // installed dual-feasibly: solves start warm
    int refactor_calls = 0;  // factorize attempts the install made (0 or 1)
    std::vector<int> basis;
    std::vector<VStat> stat;
    std::vector<double> x;
    std::vector<double> y;
    LuFactorization lu;      // published factors only, no scratch
  };
  Pinned pin_;
  // basis_, lu_ and y_ still hold the pinned install (no pivot or
  // factorization since the restore): restore_pin() skips copying them and
  // btran_costs(cost_, y_) returns y_ as is.
  bool at_pin_ = false;

  // The pin's pivot-path memo and this solve's walk down it: node_ is the
  // node the basis stands at (-1 off the memo: no pin restored, or a step
  // went unrecorded), path_ the nodes from the root's child down to it.
  // Replayed steps leave lu_ behind: it holds the pinned factorization
  // updated by path_'s first lu_steps_ steps (0: lu_ and y_ are still the
  // pin's), or -1 once anything was computed off the memo.
  PivotMemo memo_;
  int node_ = -1;
  std::vector<int> path_;
  int lu_steps_ = -1;
  long replayed_ = 0;

  // Partial-pricing candidate bucket (column indices; cleared whenever the
  // pricing cost vector changes, i.e. at every primal() entry) and the
  // rotating refill cursor (persists across refills within a solve).
  std::vector<int> cand_;
  int scan_start_ = 0;

  // Scratch.
  std::vector<double> y_, alpha_, work_, rho_, resid_;
  std::vector<int> fill_;
};

void RevisedSimplex::build() {
  m_ = p_->num_rows();
  nstruct_ = p_->num_cols();
  nreal_ = nstruct_ + m_;
  ntotal_ = nreal_;
  obj_scale_ = (p_->sense == Sense::kMaximize) ? -1.0 : 1.0;

  std::size_t nnz = 0;
  for (const auto& r : p_->rows()) nnz += r.coef.size();

  // CSC assembly: count per column, then fill.
  cp_.assign(nreal_ + 1, 0);
  for (const auto& r : p_->rows())
    for (const auto& [j, v] : r.coef) {
      (void)v;
      ++cp_[j + 1];
    }
  for (int i = 0; i < m_; ++i) cp_[nstruct_ + i + 1] = 1;  // slack units
  for (int j = 0; j < nreal_; ++j) cp_[j + 1] += cp_[j];
  ci_.resize(nnz + m_);
  cx_.resize(nnz + m_);
  fill_.assign(cp_.begin(), cp_.end() - 1);
  for (int i = 0; i < m_; ++i) {
    for (const auto& [j, v] : p_->row(i).coef) {
      ci_[fill_[j]] = i;
      cx_[fill_[j]] = v;
      ++fill_[j];
    }
  }
  for (int i = 0; i < m_; ++i) {
    ci_[fill_[nstruct_ + i]] = i;
    cx_[fill_[nstruct_ + i]] = 1.0;
  }

  cost_.assign(nreal_, 0.0);
  lo_.resize(nreal_);
  hi_.resize(nreal_);
  for (int j = 0; j < nstruct_; ++j) {
    cost_[j] = obj_scale_ * p_->obj(j);
    lo_[j] = p_->lo(j);
    hi_[j] = p_->hi(j);
  }
  b_.resize(m_);
  for (int i = 0; i < m_; ++i) {
    const auto& row = p_->row(i);
    b_[i] = row.rhs;
    const int s = nstruct_ + i;
    switch (row.sense) {
      case RowSense::kLe: lo_[s] = 0.0; hi_[s] = kInf; break;
      case RowSense::kGe: lo_[s] = -kInf; hi_[s] = 0.0; break;
      case RowSense::kEq: lo_[s] = 0.0; hi_[s] = 0.0; break;
    }
  }
}

void RevisedSimplex::begin_solve() {
  iters_ = 0;
  bland_ = false;
  factorize_failed_ = false;
  degen_run_ = 0;
  scan_start_ = 0;
  pivots_since_refactor_ = 0;
  refactor_calls_ = 0;
  refactorizations_ = 0;
  node_ = -1;  // a session's restore_pin() puts the solve at the memo root
  path_.clear();
  // Drop the artificial columns a previous cold start appended: the
  // compiled arrays go back to exactly the structural + slack system.
  ntotal_ = nreal_;
  cp_.resize(nreal_ + 1);
  ci_.resize(cp_.back());
  cx_.resize(cp_.back());
  cost_.resize(nreal_);
  lo_.resize(nreal_);
  hi_.resize(nreal_);
  art_row_.clear();
}

void RevisedSimplex::add_artificial(int row, double sign) {
  cp_.push_back(cp_.back() + 1);
  ci_.push_back(row);
  cx_.push_back(sign);
  cost_.push_back(0.0);
  lo_.push_back(0.0);
  hi_.push_back(kInf);
  art_row_.push_back(row);
  stat_.push_back(VStat::kAtLower);
  x_.push_back(0.0);
  ++ntotal_;
}

bool RevisedSimplex::factorize() {
  at_pin_ = false;
  lu_steps_ = -1;
  ++refactor_calls_;
  if (opts_->fail_refactor_at > 0 && refactor_calls_ == opts_->fail_refactor_at)
    return false;  // test-only injected failure (see SimplexOptions)
  // Representation choice: dense for tiny bases (see SimplexOptions).
  lu_.configure(opts_->dense_basis_dim > 0 && m_ <= opts_->dense_basis_dim);
  // lu_.factorize builds into scratch and publishes on success only, so a
  // singular basis leaves the previous factorization (+ eta file)
  // untouched.
  if (!lu_.factorize(m_, cp_, ci_, cx_, basis_)) return false;
  ++refactorizations_;
  pivots_since_refactor_ = 0;
  return true;
}

bool RevisedSimplex::should_refactor() const {
  if (pivots_since_refactor_ >= opts_->refactor_every) return true;
  const long enz = lu_.update_nnz();
  if (opts_->refactor_eta_nnz > 0 && enz >= opts_->refactor_eta_nnz)
    return true;
  return opts_->refactor_fill_ratio > 0.0 &&
         static_cast<double>(enz) >=
             opts_->refactor_fill_ratio *
                 static_cast<double>(lu_.factor_nnz());
}

void RevisedSimplex::set_nonbasic_value(int j) {
  switch (stat_[j]) {
    case VStat::kAtLower: x_[j] = lo_[j]; break;
    case VStat::kAtUpper: x_[j] = hi_[j]; break;
    case VStat::kFree: x_[j] = 0.0; break;
    case VStat::kBasic: break;
  }
}

void RevisedSimplex::compute_basic_values() {
  // x_B = B^-1 (b - N x_N).
  work_.assign(b_.begin(), b_.end());
  for (int j = 0; j < ntotal_; ++j) {
    if (stat_[j] == VStat::kBasic || x_[j] == 0.0) continue;
    const double v = x_[j];
    for (int t = cp_[j]; t < cp_[j + 1]; ++t) work_[ci_[t]] -= cx_[t] * v;
  }
  lu_.ftran(work_);
  for (int i = 0; i < m_; ++i) x_[basis_[i]] = work_[i];
}

void RevisedSimplex::ftran(int j, std::vector<double>& out) const {
  out.assign(m_, 0.0);
  for (int t = cp_[j]; t < cp_[j + 1]; ++t) out[ci_[t]] += cx_[t];
  lu_.ftran(out);
}

void RevisedSimplex::btran_costs(const std::vector<double>& cost,
                                 std::vector<double>& y) const {
  // The pinned duals are this very computation on this very basis and
  // factorization, so handing them back is bitwise the same.
  if (at_pin_ && &cost == &cost_ && &y == &y_) return;
  y.assign(m_, 0.0);
  for (int k = 0; k < m_; ++k) y[k] = cost[basis_[k]];
  lu_.btran(y);
}

void RevisedSimplex::btran_unit(int row, std::vector<double>& out) const {
  // rho = e_row' B^-1, the leaving row of the inverse (dual ratio tests and
  // the phase-1 artificial sweep): a unit BTRAN.
  out.assign(m_, 0.0);
  out[row] = 1.0;
  lu_.btran(out);
}

double RevisedSimplex::reduced_cost(int j, const std::vector<double>& y,
                                    const std::vector<double>& cost) const {
  double d = cost[j];
  for (int t = cp_[j]; t < cp_[j + 1]; ++t) d -= y[ci_[t]] * cx_[t];
  return d;
}

// The basis change's bookkeeping, which a replayed pivot shares with a
// computed one.
void RevisedSimplex::swap_basic(int enter, int leave_row) {
  at_pin_ = false;
  basis_[leave_row] = enter;
  stat_[enter] = VStat::kBasic;
  ++pivots_since_refactor_;
}

// Applies the basis change to the factorization as one product-form eta
// instead of rebuilding the factors.
void RevisedSimplex::pivot(int enter, int leave_row,
                           const std::vector<double>& alpha) {
  swap_basic(enter, leave_row);
  lu_steps_ = -1;
  lu_.update(leave_row, alpha);
}

void RevisedSimplex::refactorize() {
  if (!factorize()) {
    // A numerically singular basis; keep going with the stale (eta-updated)
    // factorization but remember it, so extract() reports kError instead of
    // a bogus optimum.
    factorize_failed_ = true;
    pivots_since_refactor_ = 0;
    return;
  }
  for (int j = 0; j < ntotal_; ++j)
    if (stat_[j] != VStat::kBasic) set_nonbasic_value(j);
  compute_basic_values();
}

double RevisedSimplex::violation(int j, const std::vector<double>& cost) const {
  const double d = reduced_cost(j, y_, cost);
  if (stat_[j] == VStat::kAtLower) return -d;
  if (stat_[j] == VStat::kAtUpper) return d;
  return std::abs(d);  // free
}

// Full Dantzig scan (also the Bland's-rule scan: under bland_ the FIRST
// violating column wins, which partial pricing must not short-circuit).
int RevisedSimplex::price_full(const std::vector<double>& cost) const {
  int enter = -1;
  double best = kCostTol;
  long priced = 0;
  for (int j = 0; j < ntotal_; ++j) {
    if (stat_[j] == VStat::kBasic || fixed(j)) continue;
    ++priced;
    const double viol = violation(j, cost);
    if (viol > best) {
      if (bland_) {
        enter = j;
        break;
      }
      best = viol;
      enter = j;
    }
  }
  t_lp.columns_priced += priced;
  return enter;
}

// Rotating refill: scan cyclically from where the previous refill left
// off, collecting the first `bucket` violating columns, and return the
// most violating of them (-1 only after a FULL fruitless wrap — the exact
// optimality proof partial pricing hands back to primal()).  The rotation
// matters on degenerate LPs: a "top-K by violation" bucket degenerates
// into Bland's rule when thousands of columns tie at the same reduced
// cost (network LPs do exactly that), hammering one low-index cluster
// through entire degenerate plateaus.  Starting each refill where the
// last stopped spreads entering candidates across the whole column range
// — and lets most refills terminate after a fraction of a full scan.
int RevisedSimplex::refill_candidates(const std::vector<double>& cost) {
  ++t_lp.candidate_refills;
  cand_.clear();
  const int bucket = std::clamp(ntotal_ / 8, 32, 1024);
  long priced = 0;
  int enter = -1;
  double best = kCostTol;
  int j = scan_start_;
  for (int scanned = 0; scanned < ntotal_; ++scanned, ++j) {
    if (j >= ntotal_) j = 0;
    if (stat_[j] == VStat::kBasic || fixed(j)) continue;
    ++priced;
    const double viol = violation(j, cost);
    if (viol > kCostTol) {
      cand_.push_back(j);
      if (viol > best) {
        best = viol;
        enter = j;
      }
      if (static_cast<int>(cand_.size()) >= bucket) {
        ++j;
        break;
      }
    }
  }
  scan_start_ = (j >= ntotal_) ? 0 : j;
  t_lp.columns_priced += priced;
  return enter;
}

// Partial pricing: re-price only the bucket; on a dry bucket fall back to
// a refill (a full scan), so optimality verdicts are always full-scan
// exact.  Columns that went basic or fixed are compacted out in place.
int RevisedSimplex::price_partial(const std::vector<double>& cost) {
  int enter = -1;
  double best = kCostTol;
  std::size_t keep = 0;
  long priced = 0;
  for (const int j : cand_) {
    if (stat_[j] == VStat::kBasic || fixed(j)) continue;
    cand_[keep++] = j;
    ++priced;
    const double viol = violation(j, cost);
    if (viol > best || (viol == best && enter >= 0 && j < enter)) {
      best = viol;
      enter = j;
    }
  }
  cand_.resize(keep);
  t_lp.columns_priced += priced;
  if (enter >= 0) return enter;
  return refill_candidates(cost);
}

RevisedSimplex::Step RevisedSimplex::primal(const std::vector<double>& cost,
                                            long budget) {
  cand_.clear();  // the bucket is per-cost-vector (phase 1 vs phase 2)
  for (long it = 0; it < budget; ++it) {
    btran_costs(cost, y_);

    // --- Pricing. ---
    const bool partial = ntotal_ > opts_->partial_pricing_min_cols;
    const int enter =
        (bland_ || !partial) ? price_full(cost) : price_partial(cost);
    if (enter < 0) return Step::kOptimal;

    const double d_enter = reduced_cost(enter, y_, cost);
    const double dir =
        (stat_[enter] == VStat::kAtLower ||
         (stat_[enter] == VStat::kFree && d_enter < 0.0))
            ? 1.0
            : -1.0;

    ftran(enter, alpha_);

    // --- Ratio test (with bound flips). ---
    const double range = hi_[enter] - lo_[enter];  // inf when either infinite
    double best_t = std::isfinite(range) ? range : kInf;
    int leave = -1;          // -1 with finite best_t = bound flip
    double best_piv = 0.0;
    for (int i = 0; i < m_; ++i) {
      const double a = dir * alpha_[i];
      const int bj = basis_[i];
      double t = kInf;
      if (a > kPivotTol) {
        if (lo_[bj] == -kInf) continue;
        t = (x_[bj] - lo_[bj]) / a;
      } else if (a < -kPivotTol) {
        if (hi_[bj] == kInf) continue;
        t = (hi_[bj] - x_[bj]) / (-a);
      } else {
        continue;
      }
      if (t < 0.0) t = 0.0;  // numerical drift
      if (t < best_t - 1e-12 ||
          (t < best_t + 1e-12 && std::abs(alpha_[i]) > best_piv)) {
        best_t = t;
        best_piv = std::abs(alpha_[i]);
        leave = i;
      }
    }
    if (bland_ && leave >= 0) {
      // Among rows achieving the minimum ratio, leave the smallest variable.
      const double min_t = best_t;
      int best_var = INT_MAX;
      for (int i = 0; i < m_; ++i) {
        const double a = dir * alpha_[i];
        const int bj = basis_[i];
        double t = kInf;
        if (a > kPivotTol && lo_[bj] != -kInf)
          t = std::max(0.0, (x_[bj] - lo_[bj]) / a);
        else if (a < -kPivotTol && hi_[bj] != kInf)
          t = std::max(0.0, (hi_[bj] - x_[bj]) / (-a));
        if (t <= min_t + kFeasTol && bj < best_var) {
          best_var = bj;
          leave = i;
        }
      }
    }
    if (!std::isfinite(best_t)) return Step::kUnbounded;

    ++iters_;
    degen_run_ = (best_t <= kFeasTol) ? degen_run_ + 1 : 0;
    if (degen_run_ > 2L * (m_ + ntotal_)) bland_ = true;

    const bool flip =
        leave < 0 || (std::isfinite(range) && range <= best_t + 1e-12);
    if (flip) {
      // The entering variable runs to its opposite bound; basis unchanged.
      for (int i = 0; i < m_; ++i)
        if (alpha_[i] != 0.0) x_[basis_[i]] -= dir * range * alpha_[i];
      stat_[enter] = (dir > 0) ? VStat::kAtUpper : VStat::kAtLower;
      set_nonbasic_value(enter);
      continue;
    }

    const int out_var = basis_[leave];
    for (int i = 0; i < m_; ++i)
      if (alpha_[i] != 0.0) x_[basis_[i]] -= dir * best_t * alpha_[i];
    x_[enter] += dir * best_t;
    stat_[out_var] =
        (dir * alpha_[leave] > 0) ? VStat::kAtLower : VStat::kAtUpper;
    pivot(enter, leave, alpha_);
    set_nonbasic_value(out_var);
    if (should_refactor()) refactorize();
  }
  return Step::kLimit;
}

bool RevisedSimplex::dual_feasible(const std::vector<double>& y) const {
  for (int j = 0; j < ntotal_; ++j) {
    if (stat_[j] == VStat::kBasic || fixed(j)) continue;
    const double d = reduced_cost(j, y, cost_);
    const double tol = 1e-6 * (1.0 + std::abs(cost_[j]));
    if (stat_[j] == VStat::kAtLower && d < -tol) return false;
    if (stat_[j] == VStat::kAtUpper && d > tol) return false;
    if (stat_[j] == VStat::kFree && std::abs(d) > tol) return false;
  }
  return true;
}

RevisedSimplex::Step RevisedSimplex::dual_repair(long budget) {
  for (long it = 0; it < budget; ++it) {
    // --- Leaving: the basic variable most outside its bounds. ---
    int leave = -1;
    double worst = kFeasTol;
    bool below = false;
    for (int i = 0; i < m_; ++i) {
      const int bj = basis_[i];
      const double under = lo_[bj] - x_[bj];
      const double over = x_[bj] - hi_[bj];
      if (under > worst) {
        worst = under;
        leave = i;
        below = true;
      }
      if (over > worst) {
        worst = over;
        leave = i;
        below = false;
      }
    }
    if (leave < 0) return Step::kOptimal;  // primal feasible again

    // A step the memo holds replays; anything else is computed in full,
    // on the factorization brought up to the path first.
    const int key = 2 * leave + (below ? 1 : 0);
    const int hit = node_ < 0 ? -1 : memo_.find(node_, key);
    if (hit >= 0) {
      ++replayed_;
      if (memo_.node(hit).enter < 0) return Step::kUnbounded;
      replay(hit, leave, below);
      continue;
    }
    materialize();
    const int refactor_calls = refactor_calls_;

    btran_costs(cost_, y_);
    btran_unit(leave, rho_);

    // --- Entering: bounded-variable dual ratio test. ---
    int enter = -1;
    double best_ratio = kInf, best_piv = 0.0;
    for (int j = 0; j < ntotal_; ++j) {
      if (stat_[j] == VStat::kBasic || fixed(j)) continue;
      double arj = 0.0;
      for (int t = cp_[j]; t < cp_[j + 1]; ++t) arj += rho_[ci_[t]] * cx_[t];
      if (std::abs(arj) <= kPivotTol) continue;
      // Admissibility: entering must move the leaving variable toward its
      // violated bound while respecting its own allowed direction.
      bool ok = false;
      if (stat_[j] == VStat::kFree) {
        ok = true;
      } else if (below) {  // x_B must increase: delta_j * arj < 0
        ok = (stat_[j] == VStat::kAtLower && arj < 0) ||
             (stat_[j] == VStat::kAtUpper && arj > 0);
      } else {  // x_B must decrease
        ok = (stat_[j] == VStat::kAtLower && arj > 0) ||
             (stat_[j] == VStat::kAtUpper && arj < 0);
      }
      if (!ok) continue;
      const double d = reduced_cost(j, y_, cost_);
      const double ratio = std::abs(d) / std::abs(arj);
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && std::abs(arj) > best_piv)) {
        best_ratio = ratio;
        best_piv = std::abs(arj);
        enter = j;
      }
    }
    if (enter < 0) {  // dual unbounded = primal infeasible
      if (node_ >= 0) memo_.add(node_, key, -1, leave, alpha_);
      return Step::kUnbounded;
    }

    ftran(enter, alpha_);
    const double arq = alpha_[leave];
    if (std::abs(arq) <= kPivotTol) return Step::kError;
    const int out_var = basis_[leave];
    const double target = below ? lo_[out_var] : hi_[out_var];
    const double delta = (x_[out_var] - target) / arq;
    for (int i = 0; i < m_; ++i)
      if (i != leave && alpha_[i] != 0.0) x_[basis_[i]] -= delta * alpha_[i];
    x_[enter] += delta;
    stat_[out_var] = below ? VStat::kAtLower : VStat::kAtUpper;
    pivot(enter, leave, alpha_);
    set_nonbasic_value(out_var);
    ++iters_;
    if (should_refactor()) refactorize();
    // Record the step unless it refactorized: x_ was then recomputed from
    // b, which a replay would not reproduce bitwise.  Once a step goes
    // unrecorded (that, or a full memo) the solve stays off the memo.
    if (node_ < 0) continue;
    node_ = refactor_calls_ == refactor_calls
                ? memo_.add(node_, key, enter, leave, alpha_)
                : -1;
    if (node_ >= 0) {
      path_.push_back(node_);
      lu_steps_ = static_cast<int>(path_.size());
    }
  }
  return Step::kLimit;
}

// A memo step's rhs-dependent half, bitwise as dual_repair computes it:
// the same delta, applied to the same nonzeros of alpha (each basic value
// is written once, so their order cannot matter).  lu_ is left behind
// until materialize().  The step was recorded because it did not
// refactorize, so neither does its replay: pivots_since_refactor_ advances
// as its pivot() advanced it.
void RevisedSimplex::replay(int node, int leave, bool below) {
  const PivotMemo::Node& n = memo_.node(node);
  const std::vector<std::int32_t>& rows = memo_.rows();
  const std::vector<double>& vals = memo_.vals();
  const int out_var = basis_[leave];
  const double target = below ? lo_[out_var] : hi_[out_var];
  const double delta = (x_[out_var] - target) / vals[n.begin];
  for (int t = n.begin + 1; t < n.end; ++t)
    x_[basis_[rows[t]]] -= delta * vals[t];
  x_[n.enter] += delta;
  stat_[out_var] = below ? VStat::kAtLower : VStat::kAtUpper;
  swap_basic(n.enter, leave);
  set_nonbasic_value(out_var);
  ++iters_;
  node_ = node;
  path_.push_back(node);
}

// Brings lu_ from the pin plus lu_steps_ steps of the path to all of it,
// so that the factorization is bitwise the one an unmemoized solve holds
// here.  A node's stored entries are exactly the eta its pivot appended,
// so they are appended as they are.
void RevisedSimplex::materialize() {
  if (lu_steps_ < 0) return;
  for (; lu_steps_ < static_cast<int>(path_.size()); ++lu_steps_) {
    const PivotMemo::Node& n = memo_.node(path_[lu_steps_]);
    lu_.push_packed_eta(memo_.rows().data() + n.begin,
                        memo_.vals().data() + n.begin, n.end - n.begin);
  }
}

// The primal phase after a repair.  At a memo node whose check is known to
// have found no entering column, primal() would price once and return
// kOptimal: add what that pricing counts instead.  Otherwise run it, and
// record the verdict when it did exactly that.
RevisedSimplex::Step RevisedSimplex::repaired_primal(long budget) {
  if (node_ >= 0 && budget > 0 && memo_.node(node_).priced >= 0) {
    t_lp.columns_priced += memo_.node(node_).priced;
    t_lp.candidate_refills += memo_.node(node_).refills;
    return Step::kOptimal;
  }
  materialize();
  const long priced = t_lp.columns_priced;
  const long refills = t_lp.candidate_refills;
  const long iters = iters_;
  const Step ps = primal(cost_, budget);
  if (node_ >= 0 && ps == Step::kOptimal && iters_ == iters)
    memo_.set_verdict(node_, t_lp.columns_priced - priced,
                      t_lp.candidate_refills - refills);
  return ps;
}

// Installs a caller basis: everything here is independent of the row rhs
// (the caller computes x_B afterwards), which is what lets a session pin
// the result once and restore it per solve.
bool RevisedSimplex::warm_install(const Basis& warm) {
  if (static_cast<int>(warm.basic.size()) != m_ ||
      static_cast<int>(warm.at_upper.size()) != nreal_)
    return false;
  std::vector<char> used(nreal_, 0);
  for (int j : warm.basic) {
    if (j < 0 || j >= nreal_ || used[j]) return false;
    used[j] = 1;
  }
  basis_ = warm.basic;
  stat_.assign(nreal_, VStat::kAtLower);
  x_.assign(nreal_, 0.0);
  for (int j = 0; j < nreal_; ++j) {
    if (used[j]) {
      stat_[j] = VStat::kBasic;
      continue;
    }
    // Snap nonbasic variables to the (possibly tightened) bounds.
    const bool want_upper = warm.at_upper[j] != 0;
    if (want_upper && hi_[j] != kInf) {
      stat_[j] = VStat::kAtUpper;
    } else if (!want_upper && lo_[j] != -kInf) {
      stat_[j] = VStat::kAtLower;
    } else if (lo_[j] != -kInf) {
      stat_[j] = VStat::kAtLower;
    } else if (hi_[j] != kInf) {
      stat_[j] = VStat::kAtUpper;
    } else {
      stat_[j] = VStat::kFree;
    }
    set_nonbasic_value(j);
  }
  if (!factorize()) return false;
  btran_costs(cost_, y_);
  // Only repair from a dual-feasible basis: dual simplex verdicts
  // (infeasible = prune) are only trustworthy then.
  return dual_feasible(y_);
}

bool RevisedSimplex::pin(const Basis& start) {
  begin_solve();
  pin_.warm = m_ > 0 && !start.empty() && warm_install(start);
  pin_.refactor_calls = refactor_calls_;
  if (pin_.warm) {
    pin_.basis = basis_;
    pin_.stat = stat_;
    pin_.x = x_;
    pin_.y = y_;
    pin_.lu.assign_factors(lu_);
  }
  at_pin_ = pin_.warm;
  lu_steps_ = pin_.warm ? 0 : -1;
  memo_.reset(pin_.warm);
  return pin_.warm;
}

// warm_install's replacement in a pinned session: the same state, copied
// instead of recomputed, with the solve at the memo's root.  The pin's
// factorize attempt keeps its number, so the fail_refactor_at hook counts
// exactly as in solve_lp; the copy itself is no factorization
// (refactorizations_ stays 0).  After a solve that only replayed, lu_ and
// y_ are still the pin's and only the basis is copied back.  A memo that
// filled up during the last solve starts over here.
bool RevisedSimplex::restore_pin() {
  refactor_calls_ = pin_.refactor_calls;
  if (!pin_.warm) return false;
  if (memo_.full()) memo_.reset(true);
  stat_ = pin_.stat;
  x_ = pin_.x;
  if (!at_pin_) {
    basis_ = pin_.basis;
    if (lu_steps_ != 0) {
      lu_.assign_factors(pin_.lu);
      y_ = pin_.y;
      lu_steps_ = 0;
    }
    at_pin_ = true;
  }
  node_ = 0;
  return true;
}

LpSolution RevisedSimplex::extract() {
  LpSolution sol;
  sol.iterations = iters_;
  sol.refactorizations = refactorizations_;
  sol.x.assign(nstruct_, 0.0);
  for (int j = 0; j < nstruct_; ++j) sol.x[j] = x_[j];
  // A failed mid-run refactorization means every later pivot, the final
  // optimality test, and the duals all used a stale inverse.  A feasibility
  // check could not tell a true optimum from a feasible-but-suboptimal
  // vertex, so the only honest report is kError (callers fall back: the
  // warm path restarts cold, solve_milp treats it as a limit).
  if (factorize_failed_) {
    sol.status = Status::kError;
    return sol;
  }
  sol.obj = p_->eval_obj(sol.x);
  if (opts_->want_duals) {
    materialize();
    btran_costs(cost_, y_);
    sol.y.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) sol.y[i] = obj_scale_ * y_[i];
  }
  if (opts_->want_basis) export_basis(sol);
  sol.status = Status::kOptimal;
  return sol;
}

void RevisedSimplex::export_basis(LpSolution& sol) const {
  sol.basis.basic.assign(m_, 0);
  for (int i = 0; i < m_; ++i) {
    const int j = basis_[i];
    // A residual basic artificial marks a redundant row; hand the row's
    // slack to the warm-start consumer (re-factorization validates it).
    sol.basis.basic[i] = (j >= nreal_) ? nstruct_ + art_row_[j - nreal_] : j;
  }
  sol.basis.at_upper.assign(nreal_, 0);
  for (int j = 0; j < nreal_; ++j)
    sol.basis.at_upper[j] = (stat_[j] == VStat::kAtUpper) ? 1 : 0;
}

LpSolution RevisedSimplex::run(const Basis* warm) {
  begin_solve();
  ++t_lp.solves;
  LpSolution sol;

  // Empty variable boxes decide infeasibility before any pivoting.
  for (int j = 0; j < nstruct_; ++j) {
    if (lo_[j] > hi_[j] + 1e-12) {
      sol.status = Status::kInfeasible;
      return sol;
    }
  }

  const long budget = opts_->max_iterations;

  // --- Warm path: reinstall the caller's basis (or restore the pinned
  // one) and repair with dual simplex.  Any failure — including a mid-run
  // refactorization failure, whose stale inverse makes every later verdict
  // untrustworthy — falls through to the cold start. ---
  const bool warm_ok = (warm != nullptr)
                           ? m_ > 0 && !warm->empty() && warm_install(*warm)
                           : restore_pin();
  if (warm_ok) {
    compute_basic_values();  // x_B = B^-1 (b - N x_N) for this rhs
    ++t_lp.warm_solves;
    const Step ds = dual_repair(budget);
    if (ds == Step::kUnbounded && !factorize_failed_) {
      sol.status = Status::kInfeasible;  // dual unbounded = primal empty
      sol.iterations = iters_;
      t_lp.iterations += iters_;
      return sol;
    }
    if (ds == Step::kOptimal) {
      const Step ps = repaired_primal(budget - iters_);
      if (ps == Step::kOptimal) {
        sol = extract();  // re-verifies the point if factorize_failed_
        if (sol.status == Status::kOptimal) {
          // Count only on return: a fallback to cold reports the
          // cumulative iters_ once at its own exit.
          t_lp.iterations += iters_;
          return sol;
        }
      } else if (ps == Step::kUnbounded && !factorize_failed_) {
        sol.status = Status::kUnbounded;
        sol.iterations = iters_;
        t_lp.iterations += iters_;
        return sol;
      }
    }
    // kLimit / kError / stale-inverse verdict: restart cold below.  The
    // warm attempt's pivots stay in iters_ so max_iterations caps total
    // work per solve and the reported counts include the discarded
    // attempt.
    bland_ = false;
    degen_run_ = 0;
    factorize_failed_ = false;
  }

  // --- Cold start: slack basis; infeasible rows get artificials (the
  // arrays hold none yet: begin_solve() dropped the last solve's). ---
  basis_.resize(m_);
  stat_.assign(nreal_, VStat::kAtLower);
  x_.assign(nreal_, 0.0);
  for (int j = 0; j < nstruct_; ++j) {
    if (lo_[j] != -kInf) {
      stat_[j] = VStat::kAtLower;
    } else if (hi_[j] != kInf) {
      stat_[j] = VStat::kAtUpper;
    } else {
      stat_[j] = VStat::kFree;
    }
    set_nonbasic_value(j);
  }
  // Slack-basis values: x_s = b - A x_N (B = I).
  resid_ = b_;
  std::vector<double>& resid = resid_;
  for (int j = 0; j < nstruct_; ++j) {
    if (x_[j] == 0.0) continue;
    for (int t = cp_[j]; t < cp_[j + 1]; ++t) resid[ci_[t]] -= cx_[t] * x_[j];
  }
  bool any_art = false;
  for (int i = 0; i < m_; ++i) {
    const int s = nstruct_ + i;
    const double v = resid[i];
    if (v >= lo_[s] - kFeasTol && v <= hi_[s] + kFeasTol) {
      basis_[i] = s;
      stat_[s] = VStat::kBasic;
      x_[s] = v;
      continue;
    }
    // Slack rests at the nearest bound; an artificial absorbs the residual.
    stat_[s] = (v > hi_[s]) ? VStat::kAtUpper : VStat::kAtLower;
    set_nonbasic_value(s);
    const double rem = v - x_[s];
    add_artificial(i, rem >= 0 ? 1.0 : -1.0);
    const int a = ntotal_ - 1;
    basis_[i] = a;
    stat_[a] = VStat::kBasic;
    x_[a] = std::abs(rem);
    any_art = true;
  }
  // The initial basis is all unit columns (slacks at +1, artificials at
  // +-1): factorizing it is O(m) singleton pivots.  It can only fail via
  // the fail_refactor_at test hook — and then the factorization may still
  // describe a previous basis (or problem), so the only safe verdict is an
  // immediate kError.
  if (!factorize()) {
    sol.status = Status::kError;
    sol.iterations = iters_;
    t_lp.iterations += iters_;
    return sol;
  }

  // --- Phase 1: drive the artificials to zero. ---
  if (any_art) {
    std::vector<double> c1(ntotal_, 0.0);
    for (int j = nreal_; j < ntotal_; ++j) c1[j] = 1.0;
    const Step r1 = primal(c1, budget - iters_);
    if (r1 == Step::kLimit) {
      sol.status = Status::kLimit;
      sol.iterations = iters_;
      t_lp.iterations += iters_;
      return sol;
    }
    double infeas = 0.0;
    for (int j = nreal_; j < ntotal_; ++j) infeas += std::max(0.0, x_[j]);
    if (r1 == Step::kUnbounded ||
        infeas > 1e2 * kFeasTol * (1.0 + m_)) {
      // A stale basis inverse cannot be trusted to prove infeasibility.
      sol.status = factorize_failed_ ? Status::kError : Status::kInfeasible;
      sol.iterations = iters_;
      t_lp.iterations += iters_;
      return sol;
    }
    // Freeze the artificials; pivot residual basic ones out when possible.
    for (int j = nreal_; j < ntotal_; ++j) {
      lo_[j] = hi_[j] = 0.0;
      if (stat_[j] != VStat::kBasic) {
        stat_[j] = VStat::kAtLower;
        x_[j] = 0.0;
      }
    }
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] < nreal_) continue;
      btran_unit(i, rho_);
      for (int j = 0; j < nreal_; ++j) {
        if (stat_[j] == VStat::kBasic || fixed(j)) continue;
        double arj = 0.0;
        for (int t = cp_[j]; t < cp_[j + 1]; ++t) arj += rho_[ci_[t]] * cx_[t];
        if (std::abs(arj) > 1e3 * kPivotTol) {
          ftran(j, alpha_);
          const int out_var = basis_[i];
          stat_[out_var] = VStat::kAtLower;
          x_[out_var] = 0.0;
          pivot(j, i, alpha_);  // degenerate pivot: t = 0, values unchanged
          break;
        }
      }
    }
    refactorize();
  }

  // --- Phase 2. ---
  const Step r2 = primal(cost_, budget - iters_);
  sol.iterations = iters_;
  t_lp.iterations += iters_;
  if (r2 == Step::kUnbounded) {
    // Same caveat: unboundedness derived from a stale inverse is not proof.
    sol.status = factorize_failed_ ? Status::kError : Status::kUnbounded;
    return sol;
  }
  if (r2 != Step::kOptimal) {
    sol.status = Status::kLimit;
    return sol;
  }
  sol = extract();
  sol.iterations = iters_;
  return sol;
}

}  // namespace

LpCounters lp_counters() {
  // Retired totals from exited threads plus this thread's live counters:
  // thread-inclusive accounting (see LpCounters in lp.h).
  LpCounters c = t_lp;
  for (std::size_t i = 0; i < kNumLpCounters; ++i)
    c.*kLpCounterFields[i].member +=
        g_retired[i].load(std::memory_order_relaxed);
  return c;
}

LpSolution solve_lp(const LpProblem& p, const SimplexOptions& opts,
                    const Basis* warm) {
  // One reusable solver per thread: the sampling hot loops issue hundreds of
  // thousands of tiny solves, and reusing the internal buffers removes every
  // steady-state allocation (thread_local keeps the parallel stages safe).
  thread_local RevisedSimplex solver;
  solver.load(p, opts);
  return solver.run(warm);
}

// Heap-held so the simplex's pointers into `problem`/`opts` survive moves
// of the session.
struct LpSession::State {
  LpProblem problem;
  SimplexOptions opts;
  RevisedSimplex simplex;
};

LpSession::LpSession(LpProblem problem, const SimplexOptions& opts)
    : state_(std::make_unique<State>()) {
  state_->problem = std::move(problem);
  state_->opts = opts;
  state_->simplex.load(state_->problem, state_->opts);
}

LpSession::~LpSession() = default;
LpSession::LpSession(LpSession&&) noexcept = default;
LpSession& LpSession::operator=(LpSession&&) noexcept = default;

const LpProblem& LpSession::problem() const { return state_->problem; }

void LpSession::set_row_rhs(int i, double rhs) {
  state_->problem.set_row_rhs(i, rhs);
  state_->simplex.set_rhs(i, rhs);
}

bool LpSession::pin(const Basis& start) { return state_->simplex.pin(start); }

LpSolution LpSession::solve() { return state_->simplex.run(nullptr); }

long LpSession::replayed_pivots() const { return state_->simplex.replayed(); }

}  // namespace xplain::solver
