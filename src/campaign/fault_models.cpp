#include "campaign/fault_models.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ftdb::campaign {

// --- order-statistic clocks ---------------------------------------------------
//
// Every clocked model maps each node's (or bus's) uniform u to a clock c(u)
// that is nondecreasing in exact arithmetic, and reports the (k+1)-st
// smallest clock. Computed clocks are nondecreasing only up to rounding, so
// the draw leans on a weaker, provable fact, the slack invariant: whenever
// u2 >= u1 * (1 + kClockSlack), the computed clocks satisfy c(u2) >= c(u1).
//
//  * Geometric step floor(log1p(-u) / log1p(-p)) + 1. x(u) = -log(1 - u)
//    has x(u)/u nondecreasing, so x(u2)/x(u1) >= u2/u1 >= 1 + 2^-20, while
//    log1p is accurate to a few ulps (relative 2^-50), so the computed
//    log1p values keep their order. Dividing both by the same log1p(-p) and
//    flooring are monotone (correctly rounded division), so the steps do too.
//  * Weibull life scale * pow(-log1p(-u), 1/shape). The gap of x passes
//    through pow as a relative gap of at least (1/shape) * 2^-21, which beats
//    pow's error (< 1 ulp) by a factor of 2^20 or more while
//    shape <= 2^10. Multiplying by scale is monotone. Below shape = 2^-4 the
//    power could underflow into the subnormals, where relative error bounds
//    no longer hold.
//
// Given the invariant, no uniform above T * (1 + kClockSlack), T the (k+1)-st
// smallest uniform, can undercut the k+1 smallest, so only those candidates
// need their clock (see clock_candidates). Fault thresholds work the same
// way: a clock threshold maps to a threshold on u, and only uniforms inside
// a relative band of kClockSlack around it evaluate the clock (Band below).
// Outside the Weibull range above no band is sound, so that model widens its
// slack to +inf, which makes every uniform a candidate and every fault test
// exact.

namespace detail {

std::vector<std::uint32_t> clock_candidates(const std::vector<double>& u, std::size_t rank,
                                            double slack) {
  std::vector<std::uint32_t> out;
  if (rank >= u.size()) return out;
  // Bounded selection in one pass: a max-heap holds the rank+1 smallest
  // uniforms so far, and `out` collects every index within the slack of the
  // heap's top when it was seen. The top only falls, so the final band is
  // inside every earlier one and one last filter trims `out` to it. A
  // uniform enters either with probability about (rank+1)/v, so the scan is
  // one compare per uniform.
  const double widen = 1.0 + slack;
  std::vector<double> heap(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(rank) + 1);
  std::make_heap(heap.begin(), heap.end());
  double top = heap.front();
  for (std::size_t v = 0; v <= rank; ++v) out.push_back(static_cast<std::uint32_t>(v));
  for (std::size_t v = rank + 1; v < u.size(); ++v) {
    const double x = u[v];
    if (x < top) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = x;
      std::push_heap(heap.begin(), heap.end());
      top = heap.front();
    }
    // `!(x > band)` rather than `x <= band`: with an infinite slack the
    // band edge is +inf, or NaN when the top is 0, and either way x is in.
    if (!(x > top * widen)) out.push_back(static_cast<std::uint32_t>(v));
  }
  const double bound = top * widen;
  std::erase_if(out, [&](std::uint32_t v) { return u[v] > bound; });
  return out;
}

}  // namespace detail

namespace {

using detail::kClockSlack;

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Geometric first-failure step from one uniform draw: P[T <= t] = 1-(1-p)^t,
/// T >= 1. The same draw decides the step-1 fault set ({U < p} iff T == 1),
/// which keeps the snapshot and the clock of the iid model consistent.
double geometric_step(double u, double p) {
  return std::floor(std::log1p(-u) / std::log1p(-p)) + 1.0;
}

/// A threshold on the uniform standing for a threshold on its clock: u < lo
/// is below it and u > hi is not; only a u inside [lo, hi] pays for the
/// exact clock test. With an infinite slack lo and hi are infinite or NaN,
/// and every u takes the exact test.
struct Band {
  Band(double edge, double slack) : lo(edge * (1.0 - slack)), hi(edge * (1.0 + slack)) {}

  template <class Exact>
  bool below(double u, Exact exact) const {
    if (u < lo) return true;
    if (u > hi) return false;
    return exact(u);
  }

  double lo;
  double hi;
};

/// The time of the (spares+1)-st failure, +inf when there are at most
/// `spares` units. Unit v's seed clock is clock(u[v]); a seed firing at t
/// also takes every unit of takes_down(v) down at t + 1, so v dies at
/// min(clock(u[v]), clock(u[a]) + 1 over the a that take v down).
///
/// Only the candidates' clocks are evaluated. That is exact: a unit outside
/// them has a seed clock no smaller than any of the k+1 lowest uniforms'
/// (slack invariant), so every death before their largest clock B comes
/// from a candidate's seed or its cascade, and at least k+1 deaths come no
/// later than B.
template <class Clock, class TakesDown>
double exhaustion_time(const std::vector<double>& u, unsigned spares, double slack, Clock clock,
                       TakesDown takes_down) {
  const std::vector<std::uint32_t> candidates = detail::clock_candidates(u, spares, slack);
  if (candidates.empty()) return kNever;
  std::vector<std::pair<NodeId, double>> deaths;
  for (const std::uint32_t v : candidates) {
    const double seed = clock(u[v]);
    deaths.emplace_back(static_cast<NodeId>(v), seed);
    for (const NodeId w : takes_down(static_cast<NodeId>(v))) deaths.emplace_back(w, seed + 1.0);
  }
  // Sorted by unit and then time, each unit's first entry is its death.
  std::sort(deaths.begin(), deaths.end());
  std::vector<double> times;
  for (std::size_t i = 0; i < deaths.size(); ++i) {
    if (i == 0 || deaths[i].first != deaths[i - 1].first) times.push_back(deaths[i].second);
  }
  const auto rank = times.begin() + static_cast<std::ptrdiff_t>(spares);
  std::nth_element(times.begin(), rank, times.end());
  return *rank;
}

/// No cascade: every unit dies at its own clock.
std::span<const NodeId> no_cascade(NodeId) { return {}; }

/// iid and bus_iid. In both the bus machine (node i drives bus i) and the
/// point-to-point degeneration, bus ids coincide with driver node ids, so a
/// set of failed buses *is* a set of silenced drivers.
class IidModel final : public FaultModel {
 public:
  IidModel(double p, bool buses) : p_(p), buses_(buses) {}

  std::string name() const override { return buses_ ? "bus_iid" : "iid"; }

  FaultDraw draw(const Graph& fabric, unsigned spares, TrialRng& rng) const override {
    const std::size_t n = fabric.num_nodes();  // one bus per driver node
    std::vector<double> u(n);
    std::vector<NodeId> faulty;
    for (std::size_t v = 0; v < n; ++v) {
      u[v] = rng.next_unit();
      if (u[v] < p_) faulty.push_back(static_cast<NodeId>(v));
    }
    FaultDraw out;
    out.faults = FaultSet(n, std::move(faulty));
    if (buses_) out.bus_faults.assign(out.faults.nodes().begin(), out.faults.nodes().end());
    out.spare_exhaustion_time = exhaustion_time(
        u, spares, kClockSlack, [this](double x) { return geometric_step(x, p_); }, no_cascade);
    return out;
  }

 private:
  double p_;
  bool buses_;
};

/// clustered and bus_clustered. Every node (bus) has a geometric seed clock;
/// a seed firing at time t takes the units it cascades to down at t + 1.
/// The snapshot is the step-1 seeds plus everything they cascade to.
/// clustered cascades along fabric adjacency; so does bus_clustered on a
/// point-to-point fabric (the bus of node v spans v's adjacency), while on
/// the realized bus machine a seed bus takes down the buses driven by its
/// members (a shorted bus stresses every transceiver hanging on it).
class ClusteredModel final : public FaultModel {
 public:
  ClusteredModel(double p, bool buses) : p_(p), buses_(buses) {}

  std::string name() const override { return buses_ ? "bus_clustered" : "clustered"; }

  void prepare_bus(const BusGraph& bus, unsigned /*spares*/) override {
    if (!buses_) return;
    // Bus a's members are the nodes listening on it, and each member m
    // drives bus m, so a seed failure of a takes down every bus a member of
    // a drives.
    takes_down_.assign(bus.num_buses(), {});
    for (std::size_t a = 0; a < bus.num_buses(); ++a) {
      for (const NodeId m : bus.bus(a).members) {
        if (m != bus.bus(a).driver) takes_down_[a].push_back(m);
      }
    }
  }

  FaultDraw draw(const Graph& fabric, unsigned spares, TrialRng& rng) const override {
    const std::size_t n = fabric.num_nodes();
    if (!takes_down_.empty() && takes_down_.size() != n) {
      throw std::logic_error("ClusteredModel: draw() on a fabric other than the prepared bus");
    }
    const auto takes_down = [&](NodeId v) -> std::span<const NodeId> {
      return takes_down_.empty() ? fabric.neighbors(v) : std::span<const NodeId>(takes_down_[v]);
    };
    const auto clock = [this](double x) { return geometric_step(x, p_); };
    const Band first_step(p_, kClockSlack);
    std::vector<double> u(n);
    std::vector<NodeId> faulty;
    for (std::size_t v = 0; v < n; ++v) {
      u[v] = rng.next_unit();
      if (first_step.below(u[v], [&](double x) { return clock(x) == 1.0; })) {
        faulty.push_back(static_cast<NodeId>(v));
        for (const NodeId w : takes_down(static_cast<NodeId>(v))) faulty.push_back(w);
      }
    }
    FaultDraw out;
    out.faults = FaultSet(n, std::move(faulty));
    if (buses_) out.bus_faults.assign(out.faults.nodes().begin(), out.faults.nodes().end());
    out.spare_exhaustion_time = exhaustion_time(u, spares, kClockSlack, clock, takes_down);
    return out;
  }

 private:
  double p_;
  bool buses_;
  std::vector<std::vector<NodeId>> takes_down_;  // bus machine only: a -> buses a takes down
};

class WeibullModel final : public FaultModel {
 public:
  WeibullModel(double shape, double scale, double horizon)
      : shape_(shape),
        scale_(scale),
        horizon_(horizon),
        // The slack invariant holds for shape in [2^-4, 2^10] (see the top
        // of this file); elsewhere every clock is evaluated.
        slack_(shape >= 0x1p-4 && shape <= 0x1p10 ? kClockSlack : kNever),
        // life(u) <= horizon  iff  u <= 1 - exp(-(horizon/scale)^shape).
        dead_by_horizon_(-std::expm1(-std::pow(horizon / scale, shape)), slack_) {}

  std::string name() const override { return "weibull"; }

  FaultDraw draw(const Graph& fabric, unsigned spares, TrialRng& rng) const override {
    const std::size_t n = fabric.num_nodes();
    const auto life = [this](double x) {
      // Inverse-CDF sample of Weibull(shape, scale).
      return scale_ * std::pow(-std::log1p(-x), 1.0 / shape_);
    };
    std::vector<double> u(n);
    std::vector<NodeId> faulty;
    for (std::size_t v = 0; v < n; ++v) {
      u[v] = rng.next_unit();
      if (dead_by_horizon_.below(u[v], [&](double x) { return life(x) <= horizon_; })) {
        faulty.push_back(static_cast<NodeId>(v));
      }
    }
    FaultDraw out;
    out.faults = FaultSet(n, std::move(faulty));
    out.spare_exhaustion_time = exhaustion_time(u, spares, slack_, life, no_cascade);
    return out;
  }

 private:
  double shape_;
  double scale_;
  double horizon_;
  double slack_;
  Band dead_by_horizon_;
};

class AdversarialModel final : public FaultModel {
 public:
  explicit AdversarialModel(double p) : p_(p) {}

  std::string name() const override { return "adversarial"; }

  void prepare(const Graph& fabric, unsigned /*spares*/) override {
    // Attack order: highest degree first, ties broken towards lower ids.
    // Computed once per scenario; draw() runs concurrently and only reads.
    const std::size_t n = fabric.num_nodes();
    order_.resize(n);
    for (std::size_t v = 0; v < n; ++v) order_[v] = static_cast<NodeId>(v);
    std::stable_sort(order_.begin(), order_.end(), [&](NodeId a, NodeId b) {
      return fabric.degree(a) > fabric.degree(b);
    });
  }

  FaultDraw draw(const Graph& fabric, unsigned spares, TrialRng& rng) const override {
    const std::size_t n = fabric.num_nodes();
    if (order_.size() != n) {
      throw std::logic_error("AdversarialModel: draw() before prepare()");
    }
    // The attack budget is Binomial(n, p): the adversary converts the same
    // expected failure mass as the iid model into worst-case placements.
    std::size_t budget = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.next_unit() < p_) ++budget;
    }
    std::vector<NodeId> faulty(order_.begin(),
                               order_.begin() + static_cast<std::ptrdiff_t>(budget));
    FaultDraw out;
    out.faults = FaultSet(n, std::move(faulty));
    // The i-th targeted node dies at step i, so spares run out at step k+1
    // iff the budget covers it.
    out.spare_exhaustion_time =
        budget >= static_cast<std::size_t>(spares) + 1 ? static_cast<double>(spares) + 1.0
                                                       : kNever;
    return out;
  }

 private:
  double p_;
  std::vector<NodeId> order_;
};

class BlockModel final : public FaultModel {
 public:
  BlockModel(double p, std::uint64_t max_width) : p_(p), max_width_(max_width) {}

  std::string name() const override { return "block"; }

  FaultDraw draw(const Graph& fabric, unsigned spares, TrialRng& rng) const override {
    const std::size_t n = fabric.num_nodes();
    FaultDraw out;
    if (n == 0) {
      out.spare_exhaustion_time = kNever;
      return out;
    }
    // Fixed draw order (onset, width, offset) keeps the trial stream stable
    // no matter what the draws turn out to be.
    const double onset = geometric_step(rng.next_unit(), p_);
    const std::uint64_t width = 1 + rng.next_u64() % std::min<std::uint64_t>(max_width_, n);
    const std::uint64_t offset = rng.next_u64() % n;
    std::vector<NodeId> faulty;
    faulty.reserve(width);
    for (std::uint64_t i = 0; i < width; ++i) {
      faulty.push_back(static_cast<NodeId>((offset + i) % n));
    }
    out.faults = FaultSet(n, std::move(faulty));
    // The whole block dies at once, so spares are exhausted at the onset iff
    // the block outweighs them; otherwise never.
    out.spare_exhaustion_time = width >= static_cast<std::uint64_t>(spares) + 1 ? onset : kNever;
    return out;
  }

 private:
  double p_;
  std::uint64_t max_width_;
};

}  // namespace

std::unique_ptr<FaultModel> make_fault_model(const FaultModelSpec& spec) {
  switch (spec.kind) {
    case FaultModelKind::IidBernoulli:
      return std::make_unique<IidModel>(spec.p, false);
    case FaultModelKind::Clustered:
      return std::make_unique<ClusteredModel>(spec.p, false);
    case FaultModelKind::Weibull:
      return std::make_unique<WeibullModel>(spec.shape, spec.scale, spec.horizon);
    case FaultModelKind::Adversarial:
      return std::make_unique<AdversarialModel>(spec.p);
    case FaultModelKind::Block:
      return std::make_unique<BlockModel>(spec.p, spec.width);
    case FaultModelKind::BusIid:
      return std::make_unique<IidModel>(spec.p, true);
    case FaultModelKind::BusClustered:
      return std::make_unique<ClusteredModel>(spec.p, true);
  }
  throw std::runtime_error("make_fault_model: unknown kind");
}

}  // namespace ftdb::campaign
