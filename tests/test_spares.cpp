// Tests for the spare-provisioning reliability model (ABL2 support) and the
// Weibull order-statistic MTTF.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ft/spares.hpp"

namespace ftdb {
namespace {

/// Independent fixed-step Simpson evaluation of
/// E[T_(k+1:n)] = integral of P[at most k of n Weibull lifetimes <= t] dt —
/// the quadrature cross-check for the beta-function closed form.
double weibull_mttf_reference(std::uint64_t n, unsigned k, double shape, double scale) {
  const auto survival = [&](long double t) {
    const long double q = -std::expm1(-std::pow(t / static_cast<long double>(scale),
                                                static_cast<long double>(shape)));
    return binomial_cdf(n, k, q);
  };
  long double hi = scale;
  while (survival(hi) > 1e-16L) hi *= 2.0L;
  const int steps = 200000;  // even
  const long double dt = hi / steps;
  long double sum = survival(0.0L) + survival(hi);
  for (int i = 1; i < steps; ++i) sum += survival(i * dt) * (i % 2 == 1 ? 4.0L : 2.0L);
  return static_cast<double>(sum * dt / 3.0L);
}

TEST(BinomialCdf, DegenerateProbabilities) {
  EXPECT_DOUBLE_EQ(static_cast<double>(binomial_cdf(10, 3, 0.0L)), 1.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(binomial_cdf(10, 3, 1.0L)), 0.0);
  EXPECT_DOUBLE_EQ(static_cast<double>(binomial_cdf(10, 10, 1.0L)), 1.0);
}

TEST(BinomialCdf, MatchesHandComputedValues) {
  // n = 4, p = 0.5: P[X <= 1] = (1 + 4) / 16 = 0.3125.
  EXPECT_NEAR(static_cast<double>(binomial_cdf(4, 1, 0.5L)), 0.3125, 1e-12);
  // n = 3, p = 0.1: P[X <= 0] = 0.9^3.
  EXPECT_NEAR(static_cast<double>(binomial_cdf(3, 0, 0.1L)), 0.729, 1e-12);
  // P[X <= n] = 1 always.
  EXPECT_NEAR(static_cast<double>(binomial_cdf(7, 7, 0.3L)), 1.0, 1e-12);
}

TEST(BinomialCdf, MonotoneInK) {
  long double prev = 0.0L;
  for (unsigned k = 0; k <= 20; ++k) {
    const long double v = binomial_cdf(20, k, 0.2L);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(SurvivalProbability, IncreasesWithSpares) {
  long double prev = 0.0L;
  for (unsigned k = 0; k <= 8; ++k) {
    const long double v = survival_probability(64, k, 0.01L);
    EXPECT_GT(v, prev) << "k=" << k;
    prev = v;
  }
  EXPECT_GT(prev, 0.999L);
}

TEST(SurvivalProbability, ZeroSparesIsAllHealthy) {
  // k = 0: every one of the N nodes must be healthy.
  const long double expected = std::pow(0.99L, 64);
  EXPECT_NEAR(static_cast<double>(survival_probability(64, 0, 0.01L)),
              static_cast<double>(expected), 1e-12);
}

TEST(MinSpares, FindsThreshold) {
  const unsigned k = min_spares_for_reliability(256, 0.001L, 0.9999L, 16);
  ASSERT_LE(k, 16u);
  EXPECT_GE(survival_probability(256, k, 0.001L), 0.9999L);
  if (k > 0) {
    EXPECT_LT(survival_probability(256, k - 1, 0.001L), 0.9999L);
  }
}

TEST(MinSpares, UnreachableReturnsSentinel) {
  EXPECT_EQ(min_spares_for_reliability(100, 0.9L, 0.9999L, 3), 4u);
}

TEST(WeibullMttf, MinimumLifetimeIdentity) {
  // k = 0: the first failure of n Weibulls is Weibull with scale * n^{-1/shape},
  // so E = scale * Gamma(1 + 1/shape) * n^{-1/shape} exactly.
  for (const double shape : {0.8, 1.0, 1.7, 3.0}) {
    for (const std::uint64_t n : {1ull, 4ull, 36ull, 1000ull}) {
      const double expected =
          100.0 * std::tgamma(1.0 + 1.0 / shape) * std::pow(double(n), -1.0 / shape);
      EXPECT_NEAR(weibull_mttf(n, 0, shape, 100.0), expected, 1e-9 * expected)
          << "n=" << n << " shape=" << shape;
    }
  }
}

TEST(WeibullMttf, ExponentialOrderStatisticHarmonicIdentity) {
  // shape = 1 is the exponential distribution, whose order statistics have
  // the exact harmonic form E[T_(k+1:n)] = scale * sum_{i=0}^{k} 1/(n-i).
  const double scale = 50.0;
  for (const std::uint64_t n : {5ull, 12ull, 40ull}) {
    for (unsigned k = 0; k < 5 && k < n; ++k) {
      double expected = 0.0;
      for (unsigned i = 0; i <= k; ++i) expected += scale / static_cast<double>(n - i);
      EXPECT_NEAR(weibull_mttf(n, k, 1.0, scale), expected, 1e-8 * expected)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(WeibullMttf, QuadratureCrossCheck) {
  // An independent fixed-step Simpson integration of the survival function,
  // in t rather than ln u, on small and large fabrics.
  const struct {
    std::uint64_t n;
    unsigned k;
    double shape;
    double scale;
  } cases[] = {
      {10, 2, 1.5, 400.0},
      {36, 4, 0.9, 120.0},
      {36, 8, 2.0, 75.0},
      {600, 6, 1.5, 300.0},
      {5000, 3, 1.2, 800.0},
  };
  for (const auto& c : cases) {
    const double reference = weibull_mttf_reference(c.n, c.k, c.shape, c.scale);
    const double value = weibull_mttf(c.n, c.k, c.shape, c.scale);
    EXPECT_NEAR(value, reference, 5e-5 * reference)
        << "n=" << c.n << " k=" << c.k << " shape=" << c.shape;
  }
}

/// Relative distance of `value` from `reference`.
double relative(double value, double reference) {
  return std::fabs(value - reference) / std::fabs(reference);
}

TEST(WeibullMttf, ShapeOneIsTheHarmonicSumToTheLastDigits) {
  for (const std::uint64_t n : {5ull, 40ull, 1028ull, 4104ull}) {
    for (const unsigned k : {0u, 1u, 4u, 8u}) {
      if (k >= n) continue;
      long double expected = 0.0L;
      for (unsigned i = 0; i <= k; ++i) expected += 100.0L / static_cast<long double>(n - i);
      EXPECT_LE(relative(weibull_mttf(n, k, 1.0, 100.0), static_cast<double>(expected)), 1e-13)
          << "n=" << n << " k=" << k;
    }
  }
}

/// The beta-function alternating sum in long double,
///
///   E[T_(r:n)] = scale * Gamma(1 + 1/shape) * r * C(n, r) *
///                sum_{j=0}^{r-1} (-1)^j C(r-1, j) (n - r + 1 + j)^{-(1+1/shape)},
///
/// whose cancellation costs about `cancellation(n, k)` nats of precision.
long double weibull_mttf_closed_form(std::uint64_t n, unsigned k, long double shape,
                                     long double scale) {
  const long double r = static_cast<long double>(k) + 1.0L;
  const long double s = 1.0L + 1.0L / shape;
  const long double log_pref = std::log(r) + std::lgamma(static_cast<long double>(n) + 1.0L) -
                               std::lgamma(r + 1.0L) -
                               std::lgamma(static_cast<long double>(n) - r + 1.0L);
  const auto log_term = [&](unsigned j) {
    return std::lgamma(static_cast<long double>(k) + 1.0L) -
           std::lgamma(static_cast<long double>(j) + 1.0L) -
           std::lgamma(static_cast<long double>(k - j) + 1.0L) -
           s * std::log(static_cast<long double>(n - k + j));
  };
  long double max_log = log_term(0);
  for (unsigned j = 1; j <= k; ++j) max_log = std::max(max_log, log_term(j));
  long double sum = 0.0L;
  for (unsigned j = 0; j <= k; ++j) {
    const long double term = std::exp(log_term(j) - max_log);
    sum += (j % 2 == 0) ? term : -term;
  }
  return scale * std::tgamma(s) * std::exp(log_pref + max_log) * sum;
}

long double cancellation(std::uint64_t n, unsigned k) {
  return static_cast<long double>(k) * std::log(static_cast<long double>(n)) -
         std::lgamma(static_cast<long double>(k) + 1.0L);
}

TEST(WeibullMttf, MatchesTheClosedFormWhereItsCancellationIsSmall) {
  // Past about 12 nats the closed form itself drifts beyond 1e-13 (at 18
  // nats, n = 36 and k = 8, it is 1e-9 off the exact value); the pins below
  // cover that range.
  std::size_t compared = 0;
  for (const std::uint64_t n : {4ull, 10ull, 36ull, 100ull, 1028ull}) {
    for (const unsigned k : {0u, 1u, 2u, 4u, 8u}) {
      if (k >= n || cancellation(n, k) >= 12.0L) continue;
      for (const double shape : {0.3, 0.9, 1.5, 2.0, 8.0}) {
        const double reference =
            static_cast<double>(weibull_mttf_closed_form(n, k, shape, 120.0L));
        EXPECT_LE(relative(weibull_mttf(n, k, shape, 120.0), reference), 1e-13)
            << "n=" << n << " k=" << k << " shape=" << shape;
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 40u);
}

TEST(WeibullMttf, SixteenTimesThePointsAgrees) {
  for (const std::uint64_t n : {20ull, 1028ull, 4104ull}) {
    for (const unsigned k : {0u, 4u, 8u}) {
      for (const double shape : {0.01, 0.05, 0.1, 0.5, 1.5, 2.0, 8.0, 1e3}) {
        const double fine = weibull_mttf(n, k, shape, 100.0, 16 * kWeibullMttfIntervals);
        EXPECT_LE(relative(weibull_mttf(n, k, shape, 100.0), fine), 1e-13)
            << "n=" << n << " k=" << k << " shape=" << shape;
      }
    }
  }
}

TEST(WeibullMttf, PinnedValuesAtSmallAndLargeShapes) {
  // The exact alternating sum evaluated with mpmath at 300 digits. At shape
  // <= 0.1 nearly all the mass sits where the lifetime is a tiny fraction of
  // the scale.
  const struct {
    std::uint64_t n;
    unsigned k;
    double shape;
    double scale;
    double expected;
  } cases[] = {
      {1028, 8, 0.1, 100.0, 1.252740066746153822e-17},
      {4100, 4, 0.05, 100.0, 1.4489654146496434772e-48},
      {4100, 4, 0.2, 100.0, 1.3082548867663176864e-12},
      {4100, 4, 0.01, 100.0, 2.3737608245567654315e-195},
      {1028, 4, 0.5, 100.0, 0.0028498914666373129947},
      {4104, 8, 2.0, 100.0, 4.6206240467747595998},
      {4104, 8, 8.0, 100.0, 46.238891058082802367},
      {4104, 8, 1e6, 100.0, 99.999382191874520188},
      {20, 19, 1.5, 100.0, 231.81541374354294977},
      {36, 8, 2.0, 75.0, 39.352147739483741823},
      {5000, 3, 1.2, 800.0, 2.0659451960205167714},
  };
  for (const auto& c : cases) {
    EXPECT_LE(relative(weibull_mttf(c.n, c.k, c.shape, c.scale), c.expected), 1e-13)
        << "n=" << c.n << " k=" << c.k << " shape=" << c.shape;
  }
}

TEST(ExactIidMttf, OneNodeIsTheGeometricMean) {
  // n = 1, k = 0: the node's first failure step is geometric with mean 1/p.
  for (const double p : {0.5, 0.1, 0.01}) {
    EXPECT_NEAR(exact_iid_mttf(1, 0, p), 1.0 / p, 1e-9 / p) << "p=" << p;
  }
  // A cap keeps the sum bounded: p too small to converge in 2e6 steps.
  EXPECT_TRUE(std::isnan(exact_iid_mttf(1, 0, 1e-9)));
}

TEST(WeibullMttf, MonotoneInSparesAndDegenerateInputs) {
  double prev = 0.0;
  for (unsigned k = 0; k < 8; ++k) {
    const double v = weibull_mttf(20, k, 1.5, 100.0);
    EXPECT_GT(v, prev) << "k=" << k;
    prev = v;
  }
  // k >= n: spares can never be exhausted — no finite MTTF.
  EXPECT_TRUE(std::isnan(weibull_mttf(4, 4, 1.5, 100.0)));
  EXPECT_TRUE(std::isnan(weibull_mttf(0, 0, 1.5, 100.0)));
  EXPECT_TRUE(std::isnan(weibull_mttf(4, 1, 0.0, 100.0)));
}

TEST(PortCost, FormulasAndCrossover) {
  // ours: (N+k)(4(m-1)k+2m); bus: (N+k)(2k+3). Buses always cheaper for k>=1.
  EXPECT_EQ(ours_port_cost(2, 16, 1), 17u * 8u);
  EXPECT_EQ(bus_port_cost(16, 1), 17u * 5u);
  for (unsigned k = 0; k <= 6; ++k) {
    EXPECT_LT(bus_port_cost(64, k), ours_port_cost(2, 64, k) + 1) << "k=" << k;
  }
}

}  // namespace
}  // namespace ftdb
