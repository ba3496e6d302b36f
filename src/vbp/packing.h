// The greedy packing loop behind heuristics.h, shared with optimal.cpp.
//
// One loop serves every rule (first/best/next fit, FFD) and writes a
// ball -> bin assignment only when asked for one.  The Packing-returning
// API asks; vbp_gap runs it count-only on per-thread scratch, so a warm
// gap call allocates nothing.  Internal to src/vbp.
#pragma once

#include <vector>

#include "vbp/heuristics.h"
#include "vbp/instance.h"

namespace xplain::vbp::detail {

/// Buffers the packing loop sizes on entry.  Reused, they stop allocating
/// once they have held the largest instance.
struct PackScratch {
  std::vector<double> load;  // num_bins x dims bin loads
  std::vector<char> opened;  // bin holds a ball (zero-size balls count)
  std::vector<int> order;    // FFD: balls in packing order
  std::vector<double> key;   // FFD: each ball's total size
};

/// Sets `order` to the indices of `key` by decreasing key, ties in index
/// order: a stable insertion sort, so the permutation std::stable_sort
/// gives with `key[a] > key[b]`, without its buffer.  Keys must not be NaN.
void sort_decreasing(const std::vector<double>& key, std::vector<int>& order);

/// Packs `sizes` with rule `h` and returns the bins it opens.  With `out`,
/// also fills out->assignment (-1: the ball found no bin), out->complete
/// and out->bins_used; without it nothing outside `s` is written.
int pack(VbpHeuristic h, const VbpInstance& inst,
         const std::vector<double>& sizes, PackScratch& s, Packing* out);

}  // namespace xplain::vbp::detail
