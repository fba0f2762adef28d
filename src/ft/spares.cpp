#include "ft/spares.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ftdb {

long double binomial_cdf(std::uint64_t n, std::uint64_t k, long double p) {
  if (p <= 0.0L) return 1.0L;
  if (p >= 1.0L) return k >= n ? 1.0L : 0.0L;
  // Work in log space for the first term, then use the ratio recurrence
  // P(i+1)/P(i) = (n-i)/(i+1) * p/(1-p).
  const long double q = 1.0L - p;
  long double log_term = static_cast<long double>(n) * std::log(q);
  long double term = std::exp(log_term);
  long double cdf = term;
  const long double ratio_base = p / q;
  for (std::uint64_t i = 0; i < k && i < n; ++i) {
    term *= static_cast<long double>(n - i) / static_cast<long double>(i + 1) * ratio_base;
    cdf += term;
  }
  return cdf > 1.0L ? 1.0L : cdf;
}

long double survival_probability(std::uint64_t target_nodes, unsigned spares, long double p) {
  return binomial_cdf(target_nodes + spares, spares, p);
}

unsigned min_spares_for_reliability(std::uint64_t target_nodes, long double p,
                                    long double target, unsigned max_spares) {
  for (unsigned k = 0; k <= max_spares; ++k) {
    if (survival_probability(target_nodes, k, p) >= target) return k;
  }
  return max_spares + 1;
}

std::uint64_t ours_port_cost(std::uint64_t m, std::uint64_t target_nodes, unsigned spares) {
  return (target_nodes + spares) * ((m - 1) * 4 * spares + 2 * m);
}

std::uint64_t bus_port_cost(std::uint64_t target_nodes, unsigned spares) {
  return (target_nodes + spares) * (2ull * spares + 3);
}

double exact_iid_mttf(std::uint64_t n, unsigned spares, double p) {
  long double expectation = 0.0L;
  long double log_alive = 0.0L;  // log of per-node survival prob (1-p)^t
  const long double log_1mp = std::log1p(static_cast<long double>(-p));
  for (std::uint64_t t = 0; t < 2000000; ++t) {
    const long double q_fail = -std::expm1(log_alive);
    const long double alive = binomial_cdf(n, spares, q_fail);
    expectation += alive;
    if (alive < 1e-13L && t > 0) return static_cast<double>(expectation);
    log_alive += log_1mp;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double weibull_mttf(std::uint64_t n, unsigned k, double shape, double scale,
                    unsigned intervals) {
  if (n == 0 || k >= n || !(shape > 0.0) || !(scale > 0.0) || intervals < 2 ||
      intervals % 2 != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // With u = e^s the integrand is exp(L(s)), L concave: its pieces are
  // linear, -m e^s, and (r-1) log(1 - e^{-e^s}), whose slope e^s / (e^{e^s} - 1)
  // falls as s grows.
  const long double r = static_cast<long double>(k) + 1.0L;
  const long double m = static_cast<long double>(n - k);
  const long double power = 1.0L + 1.0L / static_cast<long double>(shape);
  const auto log_integrand = [&](long double s) {
    const long double u = std::exp(s);
    const long double earlier = k == 0 ? 0.0L : (r - 1.0L) * std::log(-std::expm1(-u));
    return power * s + earlier - m * u;
  };
  const auto slope = [&](long double s) {
    const long double u = std::exp(s);
    const long double earlier = k == 0 ? 0.0L : (r - 1.0L) * u / std::expm1(u);
    return power + earlier - m * u;
  };
  // The envelope u^{r + 1/shape} e^{-m u} bounds the integrand and peaks at
  // ln(a / m), a = r + 1/shape, where the true slope is already <= 0; the
  // slope tends to `power + r - 1 > 0` on the left. Bisect for the peak.
  long double hi = std::log((r - 1.0L + power) / m);
  long double lo = hi - 1.0L;
  for (long double step = 2.0L; !(slope(lo) > 0.0L); step *= 2.0L) {
    hi = lo;
    lo -= step;
  }
  for (int i = 0; i < 100 && hi - lo > 1e-12L; ++i) {
    const long double mid = 0.5L * (lo + hi);
    (slope(mid) > 0.0L ? lo : hi) = mid;
  }
  const long double peak = 0.5L * (lo + hi);
  const long double top = log_integrand(peak);
  // The window ends where the integrand is e^-kDrop of its peak on each
  // side. By concavity the mass beyond an edge is at most e^-kDrop of the
  // peak times the edge's distance to the peak over kDrop, far below 1e-16
  // of the integral: this covers the linear left tail (about kDrop / a wide)
  // and the Gaussian core (about sqrt(2 kDrop / a)) alike.
  constexpr long double kDrop = 50.0L;
  const auto edge = [&](long double direction) {
    long double inside = peak;
    long double step = 1.0L / 1024.0L;
    long double outside = peak + direction * step;
    while (log_integrand(outside) > top - kDrop) {
      inside = outside;
      step *= 2.0L;
      outside = peak + direction * step;
    }
    for (int i = 0; i < 100 && std::fabs(outside - inside) > 1e-9L; ++i) {
      const long double mid = 0.5L * (inside + outside);
      (log_integrand(mid) > top - kDrop ? inside : outside) = mid;
    }
    return outside;
  };
  const long double left = edge(-1.0L);
  const long double right = edge(1.0L);
  // Simpson's rule on the peak-normalized integrand, which is smooth and
  // negligible at both ends, so the rule converges far faster than h^4.
  const long double h = (right - left) / static_cast<long double>(intervals);
  long double sum = 0.0L;
  for (unsigned i = 0; i <= intervals; ++i) {
    const long double weight = i == 0 || i == intervals ? 1.0L : (i % 2 == 1 ? 4.0L : 2.0L);
    sum += weight * std::exp(log_integrand(left + h * static_cast<long double>(i)) - top);
  }
  // C = n! / ((r - 1)! (n - r)!).
  const long double log_c = std::lgamma(static_cast<long double>(n) + 1.0L) - std::lgamma(r) -
                            std::lgamma(m);
  return static_cast<double>(static_cast<long double>(scale) * std::exp(log_c + top) * sum * h /
                             3.0L);
}

}  // namespace ftdb
