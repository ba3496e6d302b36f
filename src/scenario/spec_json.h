// ScenarioSpec <-> util::Json: the one serialization both the xplaind wire
// protocol and the fuzzer's committed discovery corpus use, so a spec
// written anywhere is readable everywhere.
//
// spec_to_json always emits every field in a fixed order (kind, size,
// capacity, waxman_alpha, waxman_beta, seed, failed_links,
// capacity_degradation) with the 64-bit seed as a decimal string (JSON
// numbers clip above 2^53) and doubles via util::Json's max_digits10
// printing — so to -> from -> to round-trips byte-for-byte.  In
// spec_from_json absent fields keep their spec defaults; a malformed shape,
// an unknown kind, a field of the wrong JSON kind (util::read_field) or a
// value outside the admission bounds declared in spec.h is an error naming
// the field ("scenario.size must be in [2, 16] for fat_tree").
#pragma once

#include <optional>
#include <string>

#include "scenario/spec.h"
#include "util/json.h"

namespace xplain::scenario {

util::Json spec_to_json(const ScenarioSpec& spec);

/// Parses a spec object; on failure returns std::nullopt and, when `err` is
/// non-null, a human-readable reason.
std::optional<ScenarioSpec> spec_from_json(const util::Json& v,
                                           std::string* err = nullptr);

}  // namespace xplain::scenario
