#include "scenario/spec_json.h"

#include <cmath>
#include <utility>

namespace xplain::scenario {

using util::Json;

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
  std::string ignored;
  if (!err) err = &ignored;
  const auto fail = [&](const std::string& message) {
    *err = message;
    return std::nullopt;
  };
  if (v.kind() != Json::Kind::kObject) return fail("scenario must be an object");
  ScenarioSpec out;
  if (const Json* kind = v.find("kind")) {
    if (kind->kind() != Json::Kind::kString)
      return fail("scenario.kind must be a string");
    const std::string& k = kind->as_str();
    if (k == "fat_tree") out.kind = TopologyKind::kFatTree;
    else if (k == "waxman") out.kind = TopologyKind::kWaxman;
    else if (k == "line") out.kind = TopologyKind::kLine;
    else if (k == "star") out.kind = TopologyKind::kStar;
    else return fail("unknown scenario kind \"" + k + "\"");
  }
  const std::string where = "scenario.";
  if (!util::read_field(v, where, "size", &out.size, err) ||
      !util::read_field(v, where, "capacity", &out.capacity, err) ||
      !util::read_field(v, where, "waxman_alpha", &out.waxman_alpha, err) ||
      !util::read_field(v, where, "waxman_beta", &out.waxman_beta, err) ||
      !util::read_field(v, where, "seed", &out.seed, err) ||
      !util::read_field(v, where, "failed_links", &out.failed_links, err) ||
      !util::read_field(v, where, "capacity_degradation",
                        &out.capacity_degradation, err))
    return std::nullopt;

  // Admission: the bounds declared beside ScenarioSpec (spec.h).
  const int max_size = max_scenario_size(out.kind);
  if (out.size < kMinScenarioSize || out.size > max_size)
    return fail("scenario.size must be in [" +
                std::to_string(kMinScenarioSize) + ", " +
                std::to_string(max_size) + "] for " + to_string(out.kind));
  if (out.kind == TopologyKind::kFatTree && out.size % 2 != 0)
    return fail("scenario.size must be even for fat_tree");
  if (!(out.capacity > 0.0 && std::isfinite(out.capacity)))
    return fail("scenario.capacity must be finite and > 0");
  if (out.failed_links < 0) return fail("scenario.failed_links must be >= 0");
  const std::pair<const char*, double> fractions[] = {
      {"waxman_alpha", out.waxman_alpha},
      {"waxman_beta", out.waxman_beta},
      {"capacity_degradation", out.capacity_degradation}};
  for (const auto& [name, x] : fractions)
    if (!(x > 0.0 && x <= 1.0))
      return fail(where + name + " must be in (0, 1]");
  return out;
}

}  // namespace xplain::scenario
