// Spare-provisioning analytics: how many spares k are needed for a target
// machine reliability, and what the constructions cost in links/ports. The
// paper guarantees survival iff at most k of the N+k nodes fail; with iid
// node-failure probability p this makes the machine-survival probability a
// binomial tail, which drives the ablation bench ABL2.
#pragma once

#include <cstdint>

namespace ftdb {

/// P[Binomial(n, p) <= k] computed with long-double recurrence (stable for the
/// n <= ~10^6 used here).
long double binomial_cdf(std::uint64_t n, std::uint64_t k, long double p);

/// Probability that an N-node target survives on the N+k construction when
/// every node fails independently with probability p:
/// P[at most k of N+k nodes fail].
long double survival_probability(std::uint64_t target_nodes, unsigned spares, long double p);

/// Smallest k with survival_probability(N, k, p) >= target (capped at
/// max_spares; returns max_spares+1 when unreachable).
unsigned min_spares_for_reliability(std::uint64_t target_nodes, long double p,
                                    long double target, unsigned max_spares);

/// Port cost of the point-to-point construction: (N+k) * (4(m-1)k + 2m).
std::uint64_t ours_port_cost(std::uint64_t m, std::uint64_t target_nodes, unsigned spares);

/// Port cost of the bus construction of Section V: (N+k) * (2k+3).
std::uint64_t bus_port_cost(std::uint64_t target_nodes, unsigned spares);

/// Exact E[time of the (k+1)-st failure] when all n fabric nodes fail
/// independently with probability p per step: summing the survival function,
/// E = sum_{t >= 0} P[at most k of n failed by step t], with per-node
/// failure probability 1 - (1-p)^t by step t. This is the true expectation
/// of the iid model's empirical draw (simultaneous failures allowed); a model
/// that lets failures arrive one at a time overshoots once n*p stops being
/// small.
///
/// The sum needs on the order of the MTTF itself in iterations, so a cap
/// bounds the work; past it the result is NaN (a report renders "-") rather
/// than a silently truncated number next to the empirical column it
/// validates.
double exact_iid_mttf(std::uint64_t n, unsigned spares, double p);

/// Simpson intervals of weibull_mttf's rule (513 points).
inline constexpr unsigned kWeibullMttfIntervals = 512;

/// Analytic MTTF under Weibull wear-out: E[time of the (k+1)-st failure]
/// when the n fabric nodes have iid Weibull(shape, scale) lifetimes. With
/// r = k+1, m = n-r+1 and u = (t/scale)^shape, the unit-rate exponential
/// behind a lifetime, the order statistic's mean is
///
///   E[T_(r:n)] = scale * C * integral_0^inf u^{1/shape} (1 - e^{-u})^{r-1} e^{-m u} du,
///   C = n! / ((r-1)! (n-r)!).
///
/// It is one fixed rule: Simpson over `intervals` steps in s = ln u, summed
/// in log space relative to the integrand's peak, over a window that ends
/// where the integrand falls e^-50 below that peak. There is no cancellation
/// and no adaptive refinement, so the cost is the same at every shape and the
/// relative error stays near 1e-15. `intervals` exists for the convergence
/// test (the same rule at 16x the points); the report uses the default.
/// Returns NaN when k >= n (spares can never be exhausted), for a
/// non-positive shape or scale, or for an odd or too small `intervals`.
/// This fills the analytic-MTTF column of the campaign report for the
/// weibull fault model, companion to exact_iid_mttf.
double weibull_mttf(std::uint64_t n, unsigned k, double shape, double scale,
                    unsigned intervals = kWeibullMttfIntervals);

}  // namespace ftdb
