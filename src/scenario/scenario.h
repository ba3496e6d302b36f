// Scenario corpus: parameterized, seed-deterministic topology and instance
// generators, so every registered case (DP, FF/BF, WCMP) can be driven
// across a corpus of scenarios instead of one fixed example.  DP and WCMP
// share one instance type, te::TeInstance (WCMP then skews its top
// capacity tier, TeInstance::skew_top_tier).
//
// Scenario generation is a pure function of its ScenarioSpec: the same spec
// (including its seed) produces the identical topology and instance no
// matter where, when, or on how many worker threads it is built — the same
// determinism contract the sampling loops follow (util/parallel.h).
//
// Shapes:
//   kFatTree  k-ary fat-tree switch fabric (k even): (k/2)^2 cores, k pods
//             of k/2 aggregation + k/2 edge switches; aggregation<->core
//             uplinks carry 2x the edge capacity (the tier the LB case's
//             capacity-skew dimension squeezes).
//   kWaxman   Waxman-style random WAN: nodes uniform in the unit square,
//             link probability alpha * exp(-dist / (beta * sqrt(2))), made
//             connected with a random spanning tree first.
//   kLine     path graph: the serialization stress shape (every commodity
//             shares the middle links).
//   kStar     hub-and-spoke: the incast stress shape (everything crosses
//             the hub).
#pragma once

#include <vector>

#include "scenario/spec.h"
#include "te/demand.h"
#include "te/topology.h"

namespace xplain::scenario {

/// Builds the spec's topology (pure function of the spec), including its
/// failure dimensions: `failed_links` non-bridge physical links removed
/// seed-deterministically (the surviving graph stays connected) and every
/// surviving capacity scaled by `capacity_degradation`.
te::Topology build_topology(const ScenarioSpec& spec);

/// A path-flow instance over the scenario: `num_pairs` distinct demand
/// pairs drawn seed-deterministically from the endpoint pool (fat-trees
/// draw from the edge tier — inter-rack traffic; other shapes from every
/// node), each with up to k_paths candidate paths; pairs with no path are
/// dropped.  num_pairs <= 0 selects all ordered pairs.
te::TeInstance make_te_instance(const ScenarioSpec& spec, int num_pairs,
                                int k_paths, double d_max);

/// The default scenario corpus the benches sweep: fat-tree(4), fat-tree(6)
/// and fat-tree(8) fabrics (k=8 is ~80 switches — the thousands-of-rows
/// solver regime), a 12-node Waxman WAN, and the line/star stress shapes.
std::vector<ScenarioSpec> default_corpus();

}  // namespace xplain::scenario
