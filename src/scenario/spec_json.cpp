#include "scenario/spec_json.h"

namespace xplain::scenario {

namespace {

using util::Json;

double num_or(const Json& obj, const char* key, double dflt) {
  const Json* v = obj.find(key);
  return v && v->kind() == Json::Kind::kNumber ? v->as_num() : dflt;
}

// Integer fields read numbers through Json's checked accessors: false when
// the field holds a number that is not finite, integral and in range (a
// plain cast of it is undefined behaviour).  An absent field, or one of
// another kind, keeps *out.
bool read_int(const Json& obj, const char* key, int* out) {
  const Json* v = obj.find(key);
  if (!v || v->kind() != Json::Kind::kNumber) return true;
  const std::optional<int> i = v->as_int();
  if (i) *out = *i;
  return i.has_value();
}

// Also accepts a decimal string (numbers lose precision above 2^53), which
// must be digits only and in range (util::parse_u64).
bool read_u64(const Json& obj, const char* key, std::uint64_t* out) {
  const Json* v = obj.find(key);
  if (!v || (v->kind() != Json::Kind::kNumber &&
             v->kind() != Json::Kind::kString))
    return true;
  const std::optional<std::uint64_t> u =
      v->kind() == Json::Kind::kNumber ? v->as_u64()
                                       : util::parse_u64(v->as_str());
  if (u) *out = *u;
  return u.has_value();
}

}  // namespace

Json spec_to_json(const ScenarioSpec& spec) {
  Json j = Json::object();
  j.set("kind", to_string(spec.kind));
  j.set("size", spec.size);
  j.set("capacity", spec.capacity);
  j.set("waxman_alpha", spec.waxman_alpha);
  j.set("waxman_beta", spec.waxman_beta);
  j.set("seed", std::to_string(spec.seed));
  j.set("failed_links", spec.failed_links);
  j.set("capacity_degradation", spec.capacity_degradation);
  return j;
}

std::optional<ScenarioSpec> spec_from_json(const Json& v, std::string* err) {
  const auto fail = [&](const std::string& message) {
    if (err) *err = message;
    return std::nullopt;
  };
  if (v.kind() != Json::Kind::kObject) return fail("scenario must be an object");
  ScenarioSpec out;
  const Json* kind = v.find("kind");
  if (kind && kind->kind() == Json::Kind::kString) {
    const std::string& k = kind->as_str();
    if (k == "fat_tree") out.kind = TopologyKind::kFatTree;
    else if (k == "waxman") out.kind = TopologyKind::kWaxman;
    else if (k == "line") out.kind = TopologyKind::kLine;
    else if (k == "star") out.kind = TopologyKind::kStar;
    else return fail("unknown scenario kind \"" + k + "\"");
  }
  if (!read_int(v, "size", &out.size))
    return fail("scenario.size must be an integer in int range");
  out.capacity = num_or(v, "capacity", out.capacity);
  out.waxman_alpha = num_or(v, "waxman_alpha", out.waxman_alpha);
  out.waxman_beta = num_or(v, "waxman_beta", out.waxman_beta);
  if (!read_u64(v, "seed", &out.seed))
    return fail("scenario.seed must be an integer in [0, 2^64)");
  if (!read_int(v, "failed_links", &out.failed_links))
    return fail("scenario.failed_links must be an integer in int range");
  out.capacity_degradation =
      num_or(v, "capacity_degradation", out.capacity_degradation);
  return out;
}

}  // namespace xplain::scenario
