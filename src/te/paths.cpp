#include "te/paths.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>

namespace xplain::te {

std::vector<LinkId> Path::links(const Topology& t) const {
  std::vector<LinkId> out;
  out.reserve(nodes.empty() ? 0 : nodes.size() - 1);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
    out.push_back(t.find_link(nodes[i], nodes[i + 1]));
  return out;
}

void PathLinks::add(const Topology& t, const Path& p) {
  for (LinkId l : p.links(t)) ids.push_back(l.v);
  start.push_back(static_cast<int>(ids.size()));
}

std::string Path::name() const {
  std::string s;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i) s += "-";
    s += std::to_string(nodes[i] + 1);
  }
  return s;
}

namespace {

// BFS shortest path avoiding `banned_nodes` and `banned_links`, starting
// from `src`.  Deterministic tie-break: parent chosen by first discovery in
// increasing link-id order.
Path bfs_path(const Topology& t, int src, int dst,
              const std::set<int>& banned_nodes,
              const std::set<int>& banned_links) {
  std::vector<int> parent(t.num_nodes(), -2);
  std::deque<int> q;
  if (banned_nodes.count(src) || banned_nodes.count(dst)) return {};
  parent[src] = -1;
  q.push_back(src);
  while (!q.empty()) {
    const int u = q.front();
    q.pop_front();
    if (u == dst) break;
    for (LinkId l : t.out_links(u)) {
      if (banned_links.count(l.v)) continue;
      const int v = t.link(l).to;
      if (banned_nodes.count(v) || parent[v] != -2) continue;
      parent[v] = u;
      q.push_back(v);
    }
  }
  if (parent[dst] == -2) return {};
  Path p;
  for (int u = dst; u != -1; u = parent[u]) p.nodes.push_back(u);
  std::reverse(p.nodes.begin(), p.nodes.end());
  return p;
}

}  // namespace

Path shortest_path(const Topology& t, int src, int dst) {
  return bfs_path(t, src, dst, {}, {});
}

std::vector<Path> k_shortest_paths(const Topology& t, int src, int dst,
                                   int k) {
  std::vector<Path> result;
  Path first = shortest_path(t, src, dst);
  if (first.empty() || k <= 0) return result;
  result.push_back(first);

  auto cmp = [](const Path& a, const Path& b) {
    if (a.hops() != b.hops()) return a.hops() < b.hops();
    return a.nodes < b.nodes;
  };
  std::vector<Path> candidates;

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    // Yen: branch at every spur node of the previous path.
    for (int i = 0; i + 1 < static_cast<int>(prev.nodes.size()); ++i) {
      const int spur = prev.nodes[i];
      Path root;
      root.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + i + 1);

      std::set<int> banned_links, banned_nodes;
      for (const Path& r : result) {
        if (static_cast<int>(r.nodes.size()) > i &&
            std::equal(root.nodes.begin(), root.nodes.end(),
                       r.nodes.begin())) {
          LinkId l = t.find_link(r.nodes[i], r.nodes[i + 1]);
          if (l.valid()) banned_links.insert(l.v);
        }
      }
      for (int j = 0; j < i; ++j) banned_nodes.insert(prev.nodes[j]);

      Path spur_path = bfs_path(t, spur, dst, banned_nodes, banned_links);
      if (spur_path.empty()) continue;
      Path total = root;
      total.nodes.insert(total.nodes.end(), spur_path.nodes.begin() + 1,
                         spur_path.nodes.end());
      if (std::find(result.begin(), result.end(), total) == result.end() &&
          std::find(candidates.begin(), candidates.end(), total) ==
              candidates.end())
        candidates.push_back(total);
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end(), cmp);
    result.push_back(*best);
    candidates.erase(best);
  }
  return result;
}

double bottleneck_capacity(const Topology& t, const Path& p) {
  double cap = std::numeric_limits<double>::infinity();
  for (LinkId l : p.links(t)) cap = std::min(cap, t.link(l).capacity);
  return cap;
}

}  // namespace xplain::te
