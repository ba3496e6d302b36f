#include "stats/spearman.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/descriptive.h"

namespace xplain::stats {

namespace {

// Student-t upper tail via the regularized incomplete beta function
// (continued fraction, Lentz's algorithm).
double betacf(double a, double b, double x) {
  const int kMaxIter = 200;
  const double eps = 3e-12, fpmin = 1e-300;
  double qab = a + b, qap = a + 1.0, qam = a - 1.0;
  double c = 1.0, d = 1.0 - qab * x / qap;
  if (std::fabs(d) < fpmin) d = fpmin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < fpmin) d = fpmin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < fpmin) c = fpmin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < fpmin) d = fpmin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < fpmin) c = fpmin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < eps) break;
  }
  return h;
}

double ibeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_beta =
      std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  const double front = std::exp(ln_beta + a * std::log(x) +
                                b * std::log(1.0 - x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * betacf(a, b, x) / a;
  return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

// P(T_nu > t), one-sided.
double student_t_upper(double t, double nu) {
  const double x = nu / (nu + t * t);
  const double p = 0.5 * ibeta(nu / 2.0, 0.5, x);
  return t > 0 ? p : 1.0 - p;
}

}  // namespace

SpearmanResult spearman(const std::vector<double>& x,
                        const std::vector<double>& y) {
  assert(x.size() == y.size());
  SpearmanResult res;
  res.n = static_cast<int>(x.size());
  if (res.n < 3) return res;

  const auto rx = ranks_with_ties(x);
  const auto ry = ranks_with_ties(y);
  // Pearson correlation of the ranks (handles ties correctly).
  const double mx = mean(rx), my = mean(ry);
  double sxy = 0, sxx = 0, syy = 0;
  for (int i = 0; i < res.n; ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return res;  // a constant series: no evidence
  res.rho = sxy / std::sqrt(sxx * syy);

  const double nu = res.n - 2;
  const double denom = 1.0 - res.rho * res.rho;
  if (denom <= 1e-15) {
    // Perfect rank agreement: exactly one of the n! / prod(t_g!) equally
    // likely null arrangements of y's ranks matches x's order this well.
    std::vector<double> sorted = y;
    std::sort(sorted.begin(), sorted.end());
    double log_p = -std::lgamma(res.n + 1.0);
    for (int i = 0, j = 0; i < res.n; i = j) {
      while (j < res.n && sorted[j] == sorted[i]) ++j;
      log_p += std::lgamma(j - i + 1.0);  // tie group of size j - i
    }
    const double exact = std::exp(log_p);
    res.p_value_positive = res.rho > 0 ? exact : 1.0;
    res.p_value_negative = res.rho < 0 ? exact : 1.0;
    return res;
  }
  const double t = res.rho * std::sqrt(nu / denom);
  res.p_value_positive = student_t_upper(t, nu);
  res.p_value_negative = student_t_upper(-t, nu);
  return res;
}

}  // namespace xplain::stats
