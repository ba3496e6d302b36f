// LpWork — the LP solver work a stage, job or experiment reports.
//
// StageTimes, JobSummary and ExperimentSummary all derive from this one
// record, and it owns everything done to the counters: the delta of two
// solver::lp_counters() snapshots, the sum, the comparison and the JSON
// codec.  Each of those iterates one field table (lp_work.cpp) that maps a
// record member to the LpCounters member it measures; the JSON key is that
// counter's report key (solver::kLpCounterFields).  A new reported counter
// is therefore a member here plus a row in that table.
//
// lp_warm_solves is deliberately not carried: adding it would change every
// serialized job document and every journal line already written.
#pragma once

#include "solver/lp.h"
#include "util/json.h"

namespace xplain {

struct LpWork {
  long lp_solves = 0;             // LP relaxations solved
  long lp_iterations = 0;         // simplex pivots across those solves
  long lp_columns_priced = 0;     // reduced costs evaluated by pricing
  long lp_candidate_refills = 0;  // partial-pricing bucket refills

  /// Sets every counter to its `after - before` snapshot difference.
  void set_lp_delta(const solver::LpCounters& before,
                    const solver::LpCounters& after);
  LpWork& operator+=(const LpWork& o);
  bool operator==(const LpWork& o) const;

  /// Appends the counters to a JSON object, in table order.
  void write_lp_json(util::Json& obj) const;
  /// Reads the counters back: an absent key reads 0; anything but a
  /// nonnegative integer that fits a long returns false.
  [[nodiscard]] bool read_lp_json(const util::Json& obj);
};

}  // namespace xplain
