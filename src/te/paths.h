// Candidate-path computation: k-shortest simple paths by hop count (Yen's
// algorithm over BFS).  The path-based max-flow/DP formulations route each
// demand over its candidate paths, paths[0] being the shortest path the
// heuristic pins to.
#pragma once

#include <string>
#include <vector>

#include "te/topology.h"

namespace xplain::te {

/// A simple path as a node sequence (front = source, back = destination).
struct Path {
  std::vector<int> nodes;

  int hops() const { return static_cast<int>(nodes.size()) - 1; }
  bool empty() const { return nodes.empty(); }
  /// Link ids along the path (invalid entry if a link is missing).
  std::vector<LinkId> links(const Topology& t) const;
  /// "1-2-3" with 1-based node names (matches the paper's figures).
  std::string name() const;

  friend bool operator==(const Path& a, const Path& b) {
    return a.nodes == b.nodes;
  }
};

/// Link ids of a sequence of paths, resolved once and stored flat: path i
/// of the sequence crosses links ids[start[i] .. start[i + 1]), in path
/// order.  The sampling hot loops read these instead of calling
/// Path::links, which allocates and runs one Topology::find_link per hop.
struct PathLinks {
  std::vector<int> start{0};
  std::vector<int> ids;

  /// Appends `p`'s link ids (Path::links(t)) as the next path.
  void add(const Topology& t, const Path& p);
};

/// Shortest path by hops (BFS); empty path when unreachable.
Path shortest_path(const Topology& t, int src, int dst);

/// Up to k loop-free shortest paths in non-decreasing hop count (Yen).
/// Ties are broken deterministically by lexicographic node order.
std::vector<Path> k_shortest_paths(const Topology& t, int src, int dst, int k);

/// Minimum link capacity along the path.
double bottleneck_capacity(const Topology& t, const Path& p);

}  // namespace xplain::te
