#include "xplain/lp_work.h"

#include <cstdint>
#include <limits>
#include <optional>

namespace xplain {

namespace {

struct LpWorkField {
  long LpWork::*member;
  long solver::LpCounters::*counter;
};

/// Each reported member and the counter it measures, in JSON order.
constexpr LpWorkField kLpWorkFields[] = {
    {&LpWork::lp_solves, &solver::LpCounters::solves},
    {&LpWork::lp_iterations, &solver::LpCounters::iterations},
    {&LpWork::lp_columns_priced, &solver::LpCounters::columns_priced},
    {&LpWork::lp_candidate_refills, &solver::LpCounters::candidate_refills},
};

}  // namespace

void LpWork::set_lp_delta(const solver::LpCounters& before,
                          const solver::LpCounters& after) {
  for (const LpWorkField& f : kLpWorkFields)
    this->*f.member = after.*f.counter - before.*f.counter;
}

LpWork& LpWork::operator+=(const LpWork& o) {
  for (const LpWorkField& f : kLpWorkFields) this->*f.member += o.*f.member;
  return *this;
}

bool LpWork::operator==(const LpWork& o) const {
  for (const LpWorkField& f : kLpWorkFields)
    if (this->*f.member != o.*f.member) return false;
  return true;
}

void LpWork::write_lp_json(util::Json& obj) const {
  for (const LpWorkField& f : kLpWorkFields)
    obj.set(solver::lp_counter_key(f.counter), this->*f.member);
}

bool LpWork::read_lp_json(const util::Json& obj) {
  // util::Json's checked accessor: casting an out-of-range double is
  // undefined behaviour.
  constexpr auto kMax = static_cast<std::uint64_t>(
      std::numeric_limits<long>::max());
  for (const LpWorkField& f : kLpWorkFields) {
    long& field = this->*f.member;
    field = 0;
    const util::Json* v = obj.find(solver::lp_counter_key(f.counter));
    if (!v) continue;
    const std::optional<std::uint64_t> u = v->as_u64();
    if (!u || *u > kMax) return false;
    field = static_cast<long>(*u);
  }
  return true;
}

}  // namespace xplain
