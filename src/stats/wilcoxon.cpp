#include "stats/wilcoxon.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "stats/descriptive.h"

namespace xplain::stats {

namespace {

// Exact tail probability P(W+ >= w) under H0 for n untied nonzero pairs:
// dynamic program over the 2^n sign assignments, counting by achievable
// rank-sum.  Valid when ranks are the integers 1..n (no ties).
double exact_upper_tail(int n, double w) {
  const int max_sum = n * (n + 1) / 2;
  std::vector<double> counts(max_sum + 1, 0.0);
  counts[0] = 1.0;
  for (int r = 1; r <= n; ++r)
    for (int s = max_sum; s >= r; --s) counts[s] += counts[s - r];
  double total = std::ldexp(1.0, n);  // 2^n
  double tail = 0.0;
  const int wi = static_cast<int>(std::ceil(w - 1e-9));
  for (int s = wi; s <= max_sum; ++s) tail += counts[s];
  return tail / total;
}

}  // namespace

WilcoxonResult wilcoxon_signed_rank_diffs(const std::vector<double>& diffs) {
  WilcoxonResult res;
  std::vector<double> nonzero;
  nonzero.reserve(diffs.size());
  for (double d : diffs)
    if (d != 0.0) nonzero.push_back(d);
  const int n = static_cast<int>(nonzero.size());
  res.n_effective = n;
  if (n == 0) return res;  // p = 1: no evidence

  std::vector<double> abs(n);
  bool has_ties = false;
  for (int i = 0; i < n; ++i) abs[i] = std::fabs(nonzero[i]);
  std::vector<double> rk = ranks_with_ties(abs);
  for (double r : rk)
    if (r != std::floor(r)) has_ties = true;
  // Detect integer-valued but tied ranks too (two equal magnitudes an even
  // count apart average to an integer).
  {
    std::vector<double> sorted = abs;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i + 1 < n; ++i)
      if (sorted[i] == sorted[i + 1]) has_ties = true;
  }

  double tie_correction = 0.0;
  {
    std::vector<double> sorted = abs;
    std::sort(sorted.begin(), sorted.end());
    int i = 0;
    while (i < n) {
      int j = i;
      while (j + 1 < n && sorted[j + 1] == sorted[i]) ++j;
      const double t = j - i + 1;
      tie_correction += t * t * t - t;
      i = j + 1;
    }
  }

  for (int i = 0; i < n; ++i) {
    if (nonzero[i] > 0)
      res.w_plus += rk[i];
    else
      res.w_minus += rk[i];
  }

  if (n <= 25 && !has_ties) {
    res.exact = true;
    res.p_value = exact_upper_tail(n, res.w_plus);
  } else {
    const double mu = n * (n + 1) / 4.0;
    const double var =
        n * (n + 1) * (2 * n + 1) / 24.0 - tie_correction / 48.0;
    if (var <= 0) {
      res.p_value = res.w_plus > mu ? 0.0 : 1.0;
      return res;
    }
    // Continuity-corrected one-sided p for W+ large, as the upper tail
    // 0.5 * erfc(z / sqrt 2) directly: 1 - normal_cdf(z) cancels, keeping
    // only about 16 + log10(p) digits and reaching exactly 0 above z ~ 8.3,
    // while erfc keeps full relative precision down to the paper's 2e-60
    // and beyond.  Only above z ~ 38 does the tail underflow to 0; clamp it
    // to 1e-300 so callers can still order and log p-values.
    const double z = (res.w_plus - mu - 0.5) / std::sqrt(var);
    res.p_value = 0.5 * std::erfc(z / std::sqrt(2.0));
    if (res.p_value == 0.0) res.p_value = 1e-300;
  }
  return res;
}

WilcoxonResult wilcoxon_signed_rank(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  assert(a.size() == b.size());
  std::vector<double> diffs(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) diffs[i] = a[i] - b[i];
  return wilcoxon_signed_rank_diffs(diffs);
}

}  // namespace xplain::stats
