// Spearman rank correlation with a one/two-sided significance test — the
// generalizer's statistical backend for `increasing(P)`-style predicates
// (paper §5.4: "check if the predicates in the grammar are statistically
// significant").
#pragma once

#include <vector>

namespace xplain::stats {

struct SpearmanResult {
  double rho = 0.0;
  /// One-sided p-values for the alternatives rho > 0 and rho < 0, from the
  /// t-approximation (n >= ~10 recommended).  A perfect rank agreement
  /// (|rho| = 1) gets its exact null probability instead: prod(t_g!) / n!,
  /// with t_g the sizes of y's tie groups (1/n! without ties), in the
  /// observed direction and 1 in the other.
  double p_value_positive = 1.0;
  double p_value_negative = 1.0;
  int n = 0;
};

SpearmanResult spearman(const std::vector<double>& x,
                        const std::vector<double>& y);

}  // namespace xplain::stats
