// Tests for the statistics substrate: descriptive stats, Wilcoxon
// signed-rank (exact + approximate), DKW sample sizes, Spearman.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.h"
#include "stats/dkw.h"
#include "stats/spearman.h"
#include "stats/wilcoxon.h"
#include "util/random.h"

using namespace xplain::stats;

TEST(Descriptive, Basics) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
}

TEST(Descriptive, Ecdf) {
  std::vector<double> xs = {1, 2, 2, 3};
  EXPECT_DOUBLE_EQ(ecdf(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf(xs, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(ecdf(xs, 9.0), 1.0);
}

TEST(Descriptive, RanksWithTies) {
  std::vector<double> xs = {10, 20, 20, 30};
  auto r = ranks_with_ties(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Descriptive, NormalCdf) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
}

// ---------------------------------------------------------------------------
// Wilcoxon signed-rank.
// ---------------------------------------------------------------------------

TEST(Wilcoxon, ExactSmallSample) {
  // n=5, all differences positive: W+ = 15, p = 1/32.
  auto r = wilcoxon_signed_rank_diffs({1, 2, 3, 4, 5});
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.w_plus, 15.0);
  EXPECT_NEAR(r.p_value, 1.0 / 32.0, 1e-12);
}

TEST(Wilcoxon, ExactMixedSigns) {
  // Differences 1, -2, 3: |d| ranks 1,2,3; W+ = 1 + 3 = 4.
  // P(W+ >= 4) under H0: sums {0..6}, counts: 0:1,1:1,2:1,3:2,4:1,5:1,6:1
  // -> P = (1+1+1)/8 = 3/8.
  auto r = wilcoxon_signed_rank_diffs({1, -2, 3});
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.w_plus, 4.0);
  EXPECT_NEAR(r.p_value, 3.0 / 8.0, 1e-12);
}

TEST(Wilcoxon, ZerosAreDropped) {
  auto r = wilcoxon_signed_rank_diffs({0, 0, 1, 2});
  EXPECT_EQ(r.n_effective, 2);
}

TEST(Wilcoxon, PairedInterface) {
  std::vector<double> a = {5, 6, 7};
  std::vector<double> b = {1, 1, 1};
  auto r = wilcoxon_signed_rank(a, b);
  EXPECT_NEAR(r.p_value, 1.0 / 8.0, 1e-12);  // all positive, n=3
}

TEST(Wilcoxon, ApproximationOnLargeSample) {
  // 100 strictly positive differences: p must be astronomically small —
  // this is how the paper gets DP's 2e-60-scale p-values.
  std::vector<double> d(100);
  for (int i = 0; i < 100; ++i) d[i] = 1.0 + i * 0.001;
  auto r = wilcoxon_signed_rank_diffs(d);
  EXPECT_FALSE(r.exact);
  EXPECT_LT(r.p_value, 1e-15);
}

TEST(Wilcoxon, TinyTailKeepsFullPrecision) {
  // n distinct positive differences: W+ = n(n+1)/2 with no ties, so the
  // normal-approximation tail is 0.5 * erfc(z / sqrt 2) for the z below.
  // Computing it as 1 - normal_cdf(z) cancels: n = 60 lost its sixth digit
  // and n = 100 (p ~ 2e-18) collapsed to the 1e-300 clamp.
  for (int n : {40, 60, 100, 200}) {
    std::vector<double> d(n);
    for (int i = 0; i < n; ++i) d[i] = 1.0 + i;
    const auto r = wilcoxon_signed_rank_diffs(d);
    ASSERT_FALSE(r.exact);
    const double mu = n * (n + 1) / 4.0;
    const double var = n * (n + 1) * (2 * n + 1) / 24.0;
    const double z = (n * (n + 1) / 2.0 - mu - 0.5) / std::sqrt(var);
    const double want = 0.5 * std::erfc(z / std::sqrt(2.0));
    EXPECT_GT(r.p_value, 1e-300) << "n = " << n;
    EXPECT_NEAR(r.p_value, want, 1e-12 * want) << "n = " << n;
  }
}

TEST(Wilcoxon, NullIsUniformish) {
  // Symmetric-around-zero differences: p should not be small.
  xplain::util::Rng rng(3);
  std::vector<double> d(60);
  for (auto& v : d) v = rng.normal(0.0, 1.0);
  auto r = wilcoxon_signed_rank_diffs(d);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(Wilcoxon, DetectsShiftedDistribution) {
  xplain::util::Rng rng(4);
  std::vector<double> a(80), b(80);
  for (int i = 0; i < 80; ++i) {
    b[i] = rng.normal(0.0, 1.0);
    a[i] = b[i] + 0.8 + 0.2 * rng.normal();
  }
  auto r = wilcoxon_signed_rank(a, b);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(Wilcoxon, TiesUseCorrectedVariance) {
  // Heavily tied magnitudes still produce a sane p-value in (0, 1).
  std::vector<double> d;
  for (int i = 0; i < 40; ++i) d.push_back(i % 2 ? 1.0 : -1.0);
  auto r = wilcoxon_signed_rank_diffs(d);
  EXPECT_GT(r.p_value, 0.3);
  EXPECT_LT(r.p_value, 0.7);
}

// ---------------------------------------------------------------------------
// DKW.
// ---------------------------------------------------------------------------

TEST(Dkw, KnownValue) {
  // eps=0.05, delta=0.05: n >= ln(40)/(2*0.0025) = 737.8 -> 738.
  EXPECT_EQ(dkw_sample_count(0.05, 0.05), 738u);
}

TEST(Dkw, RoundTrip) {
  for (double eps : {0.01, 0.05, 0.1}) {
    const auto n = dkw_sample_count(eps, 0.05);
    EXPECT_LE(dkw_epsilon(n, 0.05), eps + 1e-12);
    EXPECT_GT(dkw_epsilon(n - 1, 0.05), eps - 1e-4);
  }
}

TEST(Dkw, MonotoneInEpsAndDelta) {
  EXPECT_GT(dkw_sample_count(0.01, 0.05), dkw_sample_count(0.05, 0.05));
  EXPECT_GT(dkw_sample_count(0.05, 0.01), dkw_sample_count(0.05, 0.10));
}

TEST(Dkw, EmpiricallyValid) {
  // Check the bound holds on uniform samples: deviation <= eps w.h.p.
  xplain::util::Rng rng(9);
  const double eps = 0.08, delta = 0.05;
  const auto n = dkw_sample_count(eps, delta);
  int violations = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> xs(n);
    for (auto& v : xs) v = rng.uniform(0, 1);
    double worst = 0.0;
    for (double t = 0.05; t < 1.0; t += 0.05)
      worst = std::max(worst, std::fabs(ecdf(xs, t) - t));
    if (worst > eps) ++violations;
  }
  EXPECT_LE(violations, 2);  // delta = 5%, 20 trials: ~1 expected
}

// ---------------------------------------------------------------------------
// Spearman.
// ---------------------------------------------------------------------------

TEST(Spearman, PerfectMonotone) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> y = {2, 4, 5, 7, 11, 12, 14, 20};
  auto r = spearman(x, y);
  EXPECT_NEAR(r.rho, 1.0, 1e-12);
  EXPECT_LT(r.p_value_positive, 0.01);
}

TEST(Spearman, PerfectDecreasing) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6};
  std::vector<double> y = {9, 7, 6, 4, 2, 0};
  auto r = spearman(x, y);
  EXPECT_NEAR(r.rho, -1.0, 1e-12);
  EXPECT_LT(r.p_value_negative, 0.05);
  EXPECT_GT(r.p_value_positive, 0.9);
}

TEST(Spearman, NoCorrelation) {
  xplain::util::Rng rng(17);
  std::vector<double> x(200), y(200);
  for (int i = 0; i < 200; ++i) {
    x[i] = rng.uniform(0, 1);
    y[i] = rng.uniform(0, 1);
  }
  auto r = spearman(x, y);
  EXPECT_LT(std::fabs(r.rho), 0.2);
  EXPECT_GT(r.p_value_positive, 0.01);
}

TEST(Spearman, NoisyMonotoneDetected) {
  xplain::util::Rng rng(21);
  std::vector<double> x(100), y(100);
  for (int i = 0; i < 100; ++i) {
    x[i] = i;
    y[i] = i + rng.normal(0, 20);
  }
  auto r = spearman(x, y);
  EXPECT_GT(r.rho, 0.5);
  EXPECT_LT(r.p_value_positive, 1e-6);
}

TEST(Spearman, ConstantSeriesGivesNoEvidence) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {7, 7, 7, 7};
  auto r = spearman(x, y);
  EXPECT_DOUBLE_EQ(r.rho, 0.0);
  EXPECT_DOUBLE_EQ(r.p_value_positive, 1.0);
}
