#include "scenario/scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <utility>

#include "util/random.h"

namespace xplain::scenario {

namespace {

// Fat-tree node-id layout, shared by the builder and the endpoint pool:
// cores first, then per pod k/2 aggregation + k/2 edge switches.
int fat_tree_cores(int k) { return (k / 2) * (k / 2); }
int fat_tree_agg_id(int k, int pod, int j) {
  return fat_tree_cores(k) + pod * k + j;
}
int fat_tree_edge_id(int k, int pod, int j) {
  return fat_tree_cores(k) + pod * k + k / 2 + j;
}

te::Topology fat_tree(int k, double edge_capacity) {
  assert(k >= 2 && k % 2 == 0);
  const int half = k / 2;
  te::Topology t(fat_tree_cores(k) + k * k);
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e)
      for (int a = 0; a < half; ++a)
        t.add_bidi(fat_tree_edge_id(k, pod, e), fat_tree_agg_id(k, pod, a),
                   edge_capacity);
    // Aggregation switch j uplinks to core group j; uplinks carry 2x the
    // edge capacity (this is the tier the LB skew dimension squeezes).
    for (int a = 0; a < half; ++a)
      for (int c = 0; c < half; ++c)
        t.add_bidi(fat_tree_agg_id(k, pod, a), a * half + c,
                   2.0 * edge_capacity);
  }
  return t;
}

te::Topology waxman(const ScenarioSpec& spec) {
  const int n = spec.size;
  util::Rng rng(util::Rng::derive_seed(spec.seed, /*index=*/0));
  std::vector<double> px(n), py(n);
  for (int i = 0; i < n; ++i) {
    px[i] = rng.uniform(0.0, 1.0);
    py[i] = rng.uniform(0.0, 1.0);
  }
  auto cap = [&]() { return rng.uniform(0.5 * spec.capacity, spec.capacity); };
  te::Topology t(n);
  // Random spanning tree first (guarantees connectivity) ...
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  for (int i = 1; i < n; ++i) {
    const int parent = order[rng.uniform_int(0, i - 1)];
    t.add_bidi(order[i], parent, cap());
  }
  // ... then Waxman-probability extra links: nearby nodes link more often.
  const double scale = spec.waxman_beta * std::sqrt(2.0);
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b) {
      const double dist = std::hypot(px[a] - px[b], py[a] - py[b]);
      const double p = spec.waxman_alpha * std::exp(-dist / scale);
      const bool link = rng.bernoulli(p);
      if (link && !t.find_link(a, b).valid()) t.add_bidi(a, b, cap());
    }
  return t;
}

te::Topology star(int n, double capacity) {
  te::Topology t(n);
  for (int i = 1; i < n; ++i) t.add_bidi(0, i, capacity);
  return t;
}

/// Candidate endpoints for demand/commodity selection: the edge tier for
/// fat-trees (inter-rack traffic), every node otherwise.
std::vector<int> endpoint_pool(const ScenarioSpec& spec,
                               const te::Topology& topo) {
  std::vector<int> pool;
  if (spec.kind == TopologyKind::kFatTree) {
    const int k = spec.size;
    for (int pod = 0; pod < k; ++pod)
      for (int j = 0; j < k / 2; ++j)
        pool.push_back(fat_tree_edge_id(k, pod, j));
  } else {
    for (int i = 0; i < topo.num_nodes(); ++i) pool.push_back(i);
  }
  return pool;
}

/// `count` distinct ordered (src, dst) pairs, seed-deterministically drawn
/// from the pool (a different stream than topology construction uses).
std::vector<std::pair<int, int>> pick_pairs(const ScenarioSpec& spec,
                                            const std::vector<int>& pool,
                                            int count) {
  util::Rng rng(util::Rng::derive_seed(spec.seed, /*index=*/1));
  std::vector<std::pair<int, int>> pairs;
  std::set<std::pair<int, int>> seen;
  const int n = static_cast<int>(pool.size());
  const long max_distinct = static_cast<long>(n) * (n - 1);
  for (int attempts = 0;
       static_cast<int>(pairs.size()) < count &&
       static_cast<long>(pairs.size()) < max_distinct && attempts < 64 * count;
       ++attempts) {
    const int src = pool[rng.uniform_int(0, n - 1)];
    const int dst = pool[rng.uniform_int(0, n - 1)];
    if (src == dst) continue;
    if (!seen.insert({src, dst}).second) continue;
    pairs.emplace_back(src, dst);
  }
  return pairs;
}

/// The spec's failure dimensions, applied to the healthy topology: remove
/// `failed_links` physical (bidirectional) links — candidates drawn
/// seed-deterministically from their own stream (index 2, disjoint from
/// topology=0 and endpoints=1), accepting one only if the surviving graph
/// stays connected, so shapes made of bridges (lines, stars) lose fewer or
/// none — then scale every surviving capacity by `capacity_degradation`.
/// The survivors are re-added in original link-id order, so the result is a
/// pure function of the spec like everything else here.
te::Topology apply_failures(te::Topology topo, const ScenarioSpec& spec) {
  const bool degrade = spec.capacity_degradation != 1.0;
  if ((spec.failed_links <= 0 && !degrade) || topo.num_nodes() == 0)
    return topo;

  // Physical links as normalized (lo, hi) node pairs, in first-seen order.
  std::vector<std::pair<int, int>> phys;
  std::set<std::pair<int, int>> seen;
  for (const auto& l : topo.links()) {
    const std::pair<int, int> p{std::min(l.from, l.to),
                                std::max(l.from, l.to)};
    if (seen.insert(p).second) phys.push_back(p);
  }

  std::set<std::pair<int, int>> failed;
  if (spec.failed_links > 0) {
    const int n = topo.num_nodes();
    const auto connected_without = [&](const std::set<std::pair<int, int>>&
                                           dead) {
      std::vector<std::vector<int>> adj(n);
      for (const auto& p : phys) {
        if (dead.count(p)) continue;
        adj[p.first].push_back(p.second);
        adj[p.second].push_back(p.first);
      }
      std::vector<char> vis(n, 0);
      std::vector<int> stack{0};
      vis[0] = 1;
      int reached = 1;
      while (!stack.empty()) {
        const int u = stack.back();
        stack.pop_back();
        for (const int v : adj[u])
          if (!vis[v]) {
            vis[v] = 1;
            ++reached;
            stack.push_back(v);
          }
      }
      return reached == n;
    };
    util::Rng rng(util::Rng::derive_seed(spec.seed, /*index=*/2));
    std::vector<std::pair<int, int>> order = phys;
    rng.shuffle(order);
    for (const auto& cand : order) {
      if (static_cast<int>(failed.size()) >= spec.failed_links) break;
      failed.insert(cand);
      if (!connected_without(failed)) failed.erase(cand);
    }
  }

  te::Topology out(topo.num_nodes());
  for (const auto& l : topo.links()) {
    const std::pair<int, int> p{std::min(l.from, l.to),
                                std::max(l.from, l.to)};
    if (failed.count(p)) continue;
    out.add_link(l.from, l.to, l.capacity * spec.capacity_degradation);
  }
  return out;
}

}  // namespace

te::Topology build_topology(const ScenarioSpec& spec) {
  te::Topology healthy = [&] {
    switch (spec.kind) {
      case TopologyKind::kFatTree: return fat_tree(spec.size, spec.capacity);
      case TopologyKind::kWaxman: return waxman(spec);
      case TopologyKind::kLine:
        return te::Topology::line(spec.size, spec.capacity);
      case TopologyKind::kStar: return star(spec.size, spec.capacity);
    }
    return te::Topology(0);
  }();
  return apply_failures(std::move(healthy), spec);
}

te::TeInstance make_te_instance(const ScenarioSpec& spec, int num_pairs,
                                int k_paths, double d_max) {
  te::Topology topo = build_topology(spec);
  if (num_pairs <= 0)
    return te::TeInstance::all_pairs(std::move(topo), k_paths, d_max);
  const auto pairs = pick_pairs(spec, endpoint_pool(spec, topo), num_pairs);
  return te::TeInstance::make(std::move(topo), pairs, k_paths, d_max);
}

std::vector<ScenarioSpec> default_corpus() {
  std::vector<ScenarioSpec> corpus;
  // Fat-trees at k = 4, 6, 8, 16: the LB case's home fabric at growing
  // scale.  k=8 is ~80 switches / 512 directed links — the
  // thousands-of-rows LP regime the PR 6 LU factorization targeted; k=16
  // is 320 switches / 4096 directed links, the ~8k-row x 12k-col WCMP
  // probe the partial-pricing + Forrest-Tomlin solver unlocks.
  for (int k : {4, 6, 8, 16}) {
    ScenarioSpec s;
    s.kind = TopologyKind::kFatTree;
    s.size = k;
    corpus.push_back(s);
  }
  {
    ScenarioSpec s;
    s.kind = TopologyKind::kWaxman;
    s.size = 12;
    s.seed = 7;
    corpus.push_back(s);
  }
  {
    ScenarioSpec s;
    s.kind = TopologyKind::kLine;
    s.size = 6;
    corpus.push_back(s);
  }
  {
    ScenarioSpec s;
    s.kind = TopologyKind::kStar;
    s.size = 8;
    corpus.push_back(s);
  }
  return corpus;
}

}  // namespace xplain::scenario
