// Pluggable fault processes for campaign trials.
//
// Every model is a deterministic function of (fault-tolerant graph, spare
// budget, per-trial RNG): it produces the set of faulty nodes for the trial
// plus the time at which the (k+1)-st failure occurs under the model's clock
// (the moment spares are exhausted and the machine dies — the per-trial
// sample behind the empirical-MTTF column). Four processes are provided:
//
//  * iid        — every node fails independently with probability p (the
//                 paper's analytic model; empirical survival must match the
//                 binomial tail of ft/spares.hpp).
//  * clustered  — "seed" nodes drawn with probability p take their whole
//                 neighborhood down with them: faults = S u N(S). Spatially
//                 correlated failures, the classic violation of the iid
//                 assumption.
//  * weibull    — wear-out: node lifetimes are Weibull(shape, scale) and the
//                 fault set is everything dead by `horizon` time steps.
//                 shape > 1 models aging (failure rate grows over time).
//  * adversarial— targeted attack: an adversary with a Binomial(n, p) budget
//                 removes the highest-degree nodes first (ties by lower id).
//  * block      — correlated rack/pod failure: one contiguous (cyclic) block
//                 of node labels, with uniform random offset and uniform
//                 width in [1, max_width], dies together at a geometric onset
//                 time with per-step probability p. The fault set is the
//                 block itself (the trial asks whether the machine absorbs
//                 losing the rack); the clock says when the rack dies.
//                 Interesting because the monotone embedding absorbs exactly
//                 offset-bounded label shifts — a contiguous block is the
//                 most benign placement of its mass, the antithesis of the
//                 adversarial model.
//
// Two further models fail *buses* rather than nodes (Section V of the paper:
// in the bus realization node i drives bus i, so a failed bus silences its
// driver). On bus-family cells they act on the realized BusGraph and the
// runner routes the draw through ft::resolve_bus_faults; on point-to-point
// cells the "bus of node v" degenerates to v's adjacency, so bus_iid is
// statistically the iid node model and bus_clustered cascades along fabric
// edges:
//
//  * bus_iid       — every bus fails independently with probability p; the
//                    fault set is the failed buses' drivers, and the clock is
//                    the (k+1)-st driver failure (same binomial tail as iid).
//  * bus_clustered — seed buses drawn with probability p; a seed bus failing
//                    at time t takes down the buses driven by its member
//                    nodes at t + 1 (a shorted bus stresses every transceiver
//                    hanging on it). The snapshot is the step-1 seeds plus
//                    their member-driven buses.
//
// Cost model. The clocked models (iid, bus_iid, weibull, clustered,
// bus_clustered) share one pass over the units (detail::scan_clocks in clock_scan.hpp). Each
// node or bus takes exactly one rng.next_u64(), in order, so a trial's
// stream never depends on what was drawn. The pass compares each draw's
// 53-bit mantissa, as an integer, against a running cut and skips every
// uniform above it; nothing is stored per unit. The cut is the larger of
// two edges: the fault test's (no uniform above it is a fault) and the
// order-statistic band's (no uniform above it can reach the (k+1)-st
// smallest clock). Only the few uniforms at or below the cut run the
// double-precision work: the fault test, a bounded heap of the k+1
// smallest uniforms, and the band check. Only the survivors of the final
// band are turned into clocks, O(k) log1p (or pow) calls per trial. Both
// edges rest on the slack invariant: a uniform at least
// (1 + detail::kClockSlack) times another never gets the smaller computed
// clock, and a fault threshold on the clock is decided on the uniform
// except inside a thin band around it. fault_models.cpp derives the
// invariant from the rounding error of log1p and pow; where it cannot hold
// (Weibull shape outside [2^-4, 2^10]) the slack is infinite, the cut
// admits every uniform and every clock is evaluated. Either way the draw
// is bit-identical to evaluating every unit's clock and selecting the
// (k+1)-st.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/rng.hpp"
#include "campaign/scenario.hpp"
#include "ft/reconfigure.hpp"
#include "graph/bus_graph.hpp"
#include "graph/graph.hpp"

namespace ftdb::campaign {

/// One trial's worth of randomness turned into failures.
struct FaultDraw {
  FaultSet faults;  ///< faulty nodes within the fault-tolerant fabric
  /// Time of the (k+1)-st node failure under the model's clock — when the
  /// spare budget is exhausted. +inf when fewer than k+1 nodes ever fail
  /// (possible under the adversarial model); such trials are reported as
  /// censored rather than averaged.
  double spare_exhaustion_time = 0.0;
  /// Failed bus ids, sorted ascending; empty for node-fault models. On
  /// bus-family cells the runner feeds these through ft::resolve_bus_faults
  /// so the drawn buses are merged with node faults on the realized graph.
  std::vector<std::uint32_t> bus_faults;
};

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  virtual std::string name() const = 0;

  /// Called once per scenario, single-threaded, before any draw(); models
  /// precompute per-fabric state here (e.g. the adversarial attack order).
  /// draw() may afterwards run concurrently from many threads.
  virtual void prepare(const Graph& fabric, unsigned spares) {
    (void)fabric;
    (void)spares;
  }

  /// Called after prepare() on bus-family cells, single-threaded, with the
  /// realized bus machine. Bus-fault models refine their member structure
  /// from the true buses here; node-fault models ignore it.
  virtual void prepare_bus(const BusGraph& bus, unsigned spares) {
    (void)bus;
    (void)spares;
  }

  /// Draws one trial. `fabric` is the fault-tolerant interconnect the faults
  /// land on (the bus machine passes its realized point-to-point graph);
  /// `spares` is the budget k the exhaustion clock counts against. Must be
  /// a pure function of its arguments and the rng stream.
  virtual FaultDraw draw(const Graph& fabric, unsigned spares, TrialRng& rng) const = 0;
};

namespace detail {

/// Relative slack of the clock bands: 2^-20 dwarfs the few-ulp (2^-50)
/// rounding error of log1p and pow, so computed clocks of uniforms this far
/// apart keep their exact-arithmetic order.
inline constexpr double kClockSlack = 0x1p-20;

}  // namespace detail

/// Factory from the declarative spec. Throws std::runtime_error on
/// parameters the parser's validation should have rejected.
std::unique_ptr<FaultModel> make_fault_model(const FaultModelSpec& spec);

}  // namespace ftdb::campaign
