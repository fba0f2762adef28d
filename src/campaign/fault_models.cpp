#include "campaign/fault_models.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/clock_scan.hpp"

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
// need their clock (detail::scan_clocks finds them). Fault thresholds work
// the same way: a clock threshold maps to a threshold on u, and only
// uniforms inside a relative band of kClockSlack around it evaluate the
// clock (Band below). Outside the Weibull range above no band is sound, so
// that model widens its slack to +inf, which makes every uniform a
// candidate and every fault test exact.

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

/// The time of the (spares+1)-st failure among the units of one scan, +inf
/// when there are at most `spares` units. Unit v's seed clock is clock(u);
/// a seed firing at t also takes every unit of takes_down(v) down at t + 1,
/// so v dies at min(its seed clock, the seed clock + 1 of every unit that
/// takes it down).
///
/// Only the candidates' clocks are evaluated. That is exact: a unit outside
/// them has a seed clock no smaller than any of the k+1 lowest uniforms'
/// (slack invariant), so every death before their largest clock B comes
/// from a candidate's seed or its cascade, and at least k+1 deaths come no
/// later than B. For the same reason no death after B is listed.
template <class Clock, class TakesDown>
double exhaustion_time(const std::vector<detail::Candidate>& candidates, unsigned spares,
                       Clock clock, TakesDown takes_down) {
  if (candidates.empty()) return kNever;
  std::vector<double> seeds;
  for (const detail::Candidate& c : candidates) seeds.push_back(clock(c.u));
  // A nonempty scan holds more than `spares` candidates.
  std::vector<double> order = seeds;
  const auto kth = order.begin() + static_cast<std::ptrdiff_t>(spares);
  std::nth_element(order.begin(), kth, order.end());
  const double bound = *kth;
  std::vector<std::pair<NodeId, double>> deaths;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (seeds[i] > bound) continue;
    deaths.emplace_back(static_cast<NodeId>(candidates[i].unit), seeds[i]);
    if (seeds[i] + 1.0 > bound) continue;
    for (const NodeId w : takes_down(static_cast<NodeId>(candidates[i].unit))) {
      deaths.emplace_back(w, seeds[i] + 1.0);
    }
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

/// One trial of a clocked model over n units: a unit is a fault when
/// is_fault(u) holds, and a fault takes takes_down(v) with it. No uniform
/// above `fault_edge` may be a fault. With `buses` the fault set doubles as
/// the failed bus ids (bus ids coincide with driver node ids).
template <class IsFault, class Clock, class TakesDown>
FaultDraw draw_clocked(TrialRng& rng, std::size_t n, unsigned spares, double slack,
                       double fault_edge, IsFault is_fault, Clock clock, TakesDown takes_down,
                       bool buses) {
  std::vector<NodeId> faulty;
  const std::vector<detail::Candidate> candidates =
      detail::scan_clocks(rng, n, spares, slack, fault_edge, [&](std::uint32_t v, double u) {
        if (!is_fault(u)) return;
        faulty.push_back(static_cast<NodeId>(v));
        for (const NodeId w : takes_down(static_cast<NodeId>(v))) faulty.push_back(w);
      });
  FaultDraw out;
  out.faults = FaultSet(n, std::move(faulty));
  if (buses) out.bus_faults.assign(out.faults.nodes().begin(), out.faults.nodes().end());
  out.spare_exhaustion_time = exhaustion_time(candidates, spares, clock, takes_down);
  return out;
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
    const auto fails_now = [this](double u) { return u < p_; };
    const auto clock = [this](double u) { return geometric_step(u, p_); };
    return draw_clocked(rng, fabric.num_nodes(), spares, kClockSlack, p_, fails_now, clock,
                        no_cascade, buses_);
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
    const auto seeds_now = [&](double u) {
      return first_step.below(u, [&](double x) { return clock(x) == 1.0; });
    };
    return draw_clocked(rng, n, spares, kClockSlack, first_step.hi, seeds_now, clock, takes_down,
                        buses_);
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
    const auto life = [this](double x) {
      // Inverse-CDF sample of Weibull(shape, scale).
      return scale_ * std::pow(-std::log1p(-x), 1.0 / shape_);
    };
    const auto dead = [&](double u) {
      return dead_by_horizon_.below(u, [&](double x) { return life(x) <= horizon_; });
    };
    return draw_clocked(rng, fabric.num_nodes(), spares, slack_, dead_by_horizon_.hi, dead, life,
                        no_cascade, false);
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
