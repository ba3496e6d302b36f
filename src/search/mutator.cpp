#include "search/mutator.h"

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace xplain::search {

// The default clamp box lies inside the JSON admission bounds
// (scenario/spec.h), so every mutant the fuzzer archives reads back.
constexpr MutatorLimits kDefaultLimits{};
static_assert(kDefaultLimits.min_size >= scenario::kMinScenarioSize &&
              kDefaultLimits.max_size <= scenario::kMaxWaxmanSize &&
              kDefaultLimits.max_size <= scenario::kMaxLineSize &&
              kDefaultLimits.max_size <= scenario::kMaxStarSize &&
              kDefaultLimits.min_fat_tree_k >= scenario::kMinScenarioSize &&
              kDefaultLimits.max_fat_tree_k <= scenario::kMaxFatTreeK &&
              kDefaultLimits.min_capacity > 0.0 &&
              kDefaultLimits.max_failed_links >= 0 &&
              kDefaultLimits.min_degradation > 0.0 &&
              kDefaultLimits.min_degradation <= 1.0);

namespace {

using scenario::ScenarioSpec;
using scenario::TopologyKind;

/// Uniform pick in [0, n) from the slot stream (the modulo bias over 2^64
/// is immaterial for single-digit n).
std::size_t pick(util::SlotRng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next() % n);
}

int clamp_size(TopologyKind kind, int size, const MutatorLimits& lim) {
  if (kind == TopologyKind::kFatTree) {
    int k = std::clamp(size, lim.min_fat_tree_k, lim.max_fat_tree_k);
    if (k % 2 != 0) --k;  // fat-tree arity must be even
    return std::max(k, lim.min_fat_tree_k);
  }
  return std::clamp(size, lim.min_size, lim.max_size);
}

void apply_topology_swap(ScenarioSpec& s, util::SlotRng& rng,
                         const MutatorLimits& lim) {
  static constexpr TopologyKind kAll[] = {TopologyKind::kFatTree,
                                          TopologyKind::kWaxman,
                                          TopologyKind::kLine,
                                          TopologyKind::kStar};
  std::vector<TopologyKind> others;
  for (const TopologyKind k : kAll)
    if (k != s.kind) others.push_back(k);
  s.kind = others[pick(rng, others.size())];
  s.size = clamp_size(s.kind, s.size, lim);
}

void apply_size_step(ScenarioSpec& s, util::SlotRng& rng,
                     const MutatorLimits& lim) {
  const int magnitude = s.kind == TopologyKind::kFatTree
                            ? 2
                            : 1 + static_cast<int>(pick(rng, 3));
  const int step = rng.next() % 2 == 0 ? magnitude : -magnitude;
  s.size = clamp_size(s.kind, s.size + step, lim);
}

void apply_capacity_scale(ScenarioSpec& s, util::SlotRng& rng,
                          const MutatorLimits& lim) {
  static constexpr double kFactors[] = {0.5, 0.75, 1.5, 2.0};
  s.capacity = std::clamp(s.capacity * kFactors[pick(rng, 4)],
                          lim.min_capacity, lim.max_capacity);
}

void apply_seed_reroll(ScenarioSpec& s, util::SlotRng& rng) {
  s.seed = rng.next();
}

void apply_waxman_jitter(ScenarioSpec& s, util::SlotRng& rng) {
  s.waxman_alpha = std::clamp(s.waxman_alpha * rng.uniform(0.8, 1.25),
                              0.2, 0.95);
  s.waxman_beta = std::clamp(s.waxman_beta * rng.uniform(0.8, 1.25),
                             0.1, 0.8);
}

void apply_link_failure(ScenarioSpec& s, util::SlotRng& rng,
                        const MutatorLimits& lim) {
  static constexpr int kSteps[] = {-1, 1, 2};
  s.failed_links = std::clamp(s.failed_links + kSteps[pick(rng, 3)], 0,
                              lim.max_failed_links);
}

void apply_capacity_degradation(ScenarioSpec& s, util::SlotRng& rng,
                                const MutatorLimits& lim) {
  if (s.capacity_degradation == 1.0) {
    static constexpr double kBrownouts[] = {0.85, 0.7, 0.5, 0.35};
    s.capacity_degradation =
        std::max(kBrownouts[pick(rng, 4)], lim.min_degradation);
    return;
  }
  s.capacity_degradation = std::clamp(
      s.capacity_degradation * rng.uniform(0.8, 1.3), lim.min_degradation,
      1.0);
}

}  // namespace

const char* to_string(MutationOp op) {
  switch (op) {
    case MutationOp::kTopologySwap: return "topology_swap";
    case MutationOp::kSizeStep: return "size_step";
    case MutationOp::kCapacityScale: return "capacity_scale";
    case MutationOp::kSeedReroll: return "seed_reroll";
    case MutationOp::kWaxmanShapeJitter: return "waxman_shape_jitter";
    case MutationOp::kLinkFailure: return "link_failure";
    case MutationOp::kCapacityDegradation: return "capacity_degradation";
  }
  return "?";
}

Mutant mutate(const ScenarioSpec& parent, std::uint64_t seed,
              const MutatorLimits& limits) {
  util::SlotRng rng(seed);
  // The op menu depends only on the parent's kind (Waxman shape jitter is
  // meaningless elsewhere), keeping the choice a pure function of
  // (parent, seed).
  std::vector<MutationOp> menu = {
      MutationOp::kTopologySwap,    MutationOp::kSizeStep,
      MutationOp::kCapacityScale,   MutationOp::kSeedReroll,
      MutationOp::kLinkFailure,     MutationOp::kCapacityDegradation,
  };
  if (parent.kind == TopologyKind::kWaxman)
    menu.push_back(MutationOp::kWaxmanShapeJitter);

  Mutant m;
  m.spec = parent;
  m.spec.size = clamp_size(parent.kind, parent.size, limits);
  m.op = menu[pick(rng, menu.size())];
  switch (m.op) {
    case MutationOp::kTopologySwap:
      apply_topology_swap(m.spec, rng, limits);
      break;
    case MutationOp::kSizeStep:
      apply_size_step(m.spec, rng, limits);
      break;
    case MutationOp::kCapacityScale:
      apply_capacity_scale(m.spec, rng, limits);
      break;
    case MutationOp::kSeedReroll:
      apply_seed_reroll(m.spec, rng);
      break;
    case MutationOp::kWaxmanShapeJitter:
      apply_waxman_jitter(m.spec, rng);
      break;
    case MutationOp::kLinkFailure:
      apply_link_failure(m.spec, rng, limits);
      break;
    case MutationOp::kCapacityDegradation:
      apply_capacity_degradation(m.spec, rng, limits);
      break;
  }
  return m;
}

}  // namespace xplain::search
