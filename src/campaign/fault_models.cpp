#include "campaign/fault_models.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ftdb::campaign {

// --- direct order-statistic draws ---------------------------------------------
//
// Every clocked model gives each unit (node or bus) an iid uniform u and a
// clock c(u), nondecreasing in u; a unit is a fault when u falls below the
// model's fault probability q. A trial needs only the fault set and the
// (k+1)-st smallest clock, so it draws them directly:
//
//  * the fault count f ~ Binomial(n, q), from a per-cell table
//    (BinomialTable);
//  * the f faulty units, a uniform f-subset by Floyd's algorithm
//    (FaultSet::random);
//  * the (k+1)-st smallest uniform. Given f, the faulty units' uniforms are
//    iid on (0, q) and the others iid on (q, 1), so it is the (k+1)-st
//    smallest of the f, or the (k+1-f)-th smallest of the n-f. The j-th
//    smallest of m iid uniforms is 1 - e^{-E}, E the j-th smallest of m iid
//    unit exponentials, and E is the Renyi sum sum_{i<=j} X_i / (m - i + 1)
//    of j fresh exponentials: O(k) log1p calls, whatever n is.
//
// The clocks are then written in terms of E, which is where their libm calls
// go. For the geometric clock floor(log1p(-u) / log1p(-p)) + 1 a faulty unit
// fires at step 1 and a unit with u = p + (1 - p)(1 - e^{-E}) at step
// 2 + floor(E / -log1p(-p)). For the Weibull life
// scale * (-log1p(-u))^{1/shape} a unit past the horizon lives
// scale * ((horizon / scale)^shape + E)^{1/shape}.

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/// The Renyi representation: the i-th next() returns the i-th smallest of
/// `m` iid unit exponentials, adding one fresh exponential (one uniform,
/// one log1p) over the m - i + 1 still in play.
class ExponentialOrderStatistics {
 public:
  explicit ExponentialOrderStatistics(std::size_t m) : m_(m) {}

  double next(TrialRng& rng) {
    value_ += -std::log1p(-rng.next_unit()) / static_cast<double>(m_ - taken_);
    ++taken_;
    return value_;
  }

 private:
  std::size_t m_;
  std::size_t taken_ = 0;
  double value_ = 0.0;
};

/// The j-th smallest of m iid unit exponentials, j >= 1.
double exponential_order_statistic(TrialRng& rng, std::size_t m, std::size_t j) {
  ExponentialOrderStatistics order(m);
  double e = 0.0;
  for (std::size_t i = 0; i < j; ++i) e = order.next(rng);
  return e;
}

/// Geometric first-failure step of a unit past step 1 whose uniform is
/// p + (1 - p)(1 - e^{-e}): P[T <= t] = 1-(1-p)^t, T >= 2.
double later_step(double e, double rate) { return 2.0 + std::floor(e / rate); }

/// Geometric first-failure step from one uniform draw: P[T <= t] = 1-(1-p)^t,
/// T >= 1 (the block model's onset).
double geometric_step(double u, double p) {
  return std::floor(std::log1p(-u) / std::log1p(-p)) + 1.0;
}

/// Distinct values of [0, m) in uniformly random order, one per next(): a
/// partial Fisher-Yates shuffle of the virtual array 0..m-1, one next_below
/// per value, keeping only the few entries it has moved.
class OrderedSample {
 public:
  explicit OrderedSample(std::size_t m) : m_(m) {}

  std::size_t next(TrialRng& rng) {
    const std::size_t i = taken_++;
    const std::size_t r = i + static_cast<std::size_t>(rng.next_below(m_ - i));
    const std::size_t picked = at(r);
    // Position i is never drawn again, so only r needs i's value.
    const std::size_t displaced = at(i);
    const auto slot = std::find_if(moved_.begin(), moved_.end(),
                                   [r](const auto& e) { return e.first == r; });
    if (slot != moved_.end()) {
      slot->second = displaced;
    } else {
      moved_.emplace_back(r, displaced);
    }
    return picked;
  }

 private:
  std::size_t at(std::size_t pos) const {
    for (const auto& [p, v] : moved_) {
      if (p == pos) return v;
    }
    return pos;
  }

  std::size_t m_;
  std::size_t taken_ = 0;
  std::vector<std::pair<std::size_t, std::size_t>> moved_;  // position, value held there
};

/// Binomial(n, p) by inversion of one 53-bit mantissa, compared as an
/// integer against a CDF table built with IEEE basic operations only: the
/// pmf-ratio recurrence from weight 1 at the mode outwards in both
/// directions, stopped where the rest of the tail is below 2^-54, and
/// normalized by its sum. Never forms (1-p)^n, which underflows at large n.
class BinomialTable {
 public:
  BinomialTable() = default;

  BinomialTable(std::size_t n, double p) : n_(n) {
    if (!(p > 0.0)) return;
    if (!(p < 1.0)) {
      lo_ = n;
      return;
    }
    const double odds = p / (1.0 - p);
    const auto mode = std::min(n, static_cast<std::size_t>(static_cast<double>(n + 1) * p));
    // The ratios fall away from the mode (the pmf is log-concave), so once
    // one is below 1 the rest of the tail is at most w * ratio / (1 - ratio).
    const auto negligible = [](double w, double ratio) {
      return ratio < 1.0 && w * ratio < 0x1p-54 * (1.0 - ratio);
    };
    std::vector<double> below;  // weights of mode-1, mode-2, ...
    double w = 1.0;
    for (std::size_t i = mode; i > 0; --i) {
      const double ratio = static_cast<double>(i) / static_cast<double>(n - i + 1) / odds;
      w *= ratio;
      below.push_back(w);
      if (negligible(w, ratio)) break;
    }
    std::vector<double> weights(below.rbegin(), below.rend());
    weights.push_back(1.0);
    w = 1.0;
    for (std::size_t i = mode; i < n; ++i) {
      const double ratio = static_cast<double>(n - i) / static_cast<double>(i + 1) * odds;
      w *= ratio;
      weights.push_back(w);
      if (negligible(w, ratio)) break;
    }
    lo_ = mode - below.size();
    double total = 0.0;
    for (const double x : weights) total += x;
    double partial = 0.0;
    for (std::size_t j = 0; j + 1 < weights.size(); ++j) {
      partial += weights[j];
      cut_.push_back(static_cast<std::int64_t>(partial / total * 0x1p53));
    }
  }

  /// The number of units the table was built for.
  std::size_t units() const { return n_; }

  /// One draw; takes exactly one next_u64().
  std::size_t draw(TrialRng& rng) const {
    const auto m = static_cast<std::int64_t>(rng.next_u64() >> 11);
    return lo_ + static_cast<std::size_t>(std::upper_bound(cut_.begin(), cut_.end(), m) -
                                          cut_.begin());
  }

 private:
  std::size_t n_ = 0;
  std::size_t lo_ = 0;
  // cut_[j] = floor(2^53 * P[lo <= F <= lo + j]) for all but the last value.
  std::vector<std::int64_t> cut_;
};

/// A clocked model's per-cell state: the fault-count table for the fabric
/// it was prepared for.
class ClockedModel : public FaultModel {
 public:
  void prepare(const Graph& fabric, unsigned /*spares*/) override {
    faults_ = BinomialTable(fabric.num_nodes(), fault_probability_);
  }

 protected:
  /// `fault_probability`: P[a unit is faulty in the snapshot] (a seed, for
  /// the cascading models).
  explicit ClockedModel(double fault_probability) : fault_probability_(fault_probability) {}

  double fault_probability() const { return fault_probability_; }

  /// The fault count of one trial, after checking the model was prepared for
  /// this fabric.
  std::size_t draw_fault_count(const Graph& fabric, TrialRng& rng) const {
    if (faults_.units() != fabric.num_nodes()) {
      throw std::logic_error(name() + ": draw() on a fabric other than the prepared one");
    }
    return faults_.draw(rng);
  }

 private:
  double fault_probability_;
  BinomialTable faults_;
};

/// iid and bus_iid. In both the bus machine (node i drives bus i) and the
/// point-to-point degeneration, bus ids coincide with driver node ids, so a
/// set of failed buses *is* a set of silenced drivers.
class IidModel final : public ClockedModel {
 public:
  IidModel(double p, bool buses) : ClockedModel(p), rate_(-std::log1p(-p)), buses_(buses) {}

  std::string name() const override { return buses_ ? "bus_iid" : "iid"; }

  FaultDraw draw(const Graph& fabric, unsigned spares, TrialRng& rng) const override {
    const std::size_t n = fabric.num_nodes();
    const std::size_t f = draw_fault_count(fabric, rng);
    FaultDraw out;
    out.faults = FaultSet::random(n, f, rng);
    if (buses_) out.bus_faults.assign(out.faults.nodes().begin(), out.faults.nodes().end());
    // Every fault fires at step 1; past them the clock is the geometric
    // step of the (k+1-f)-th smallest uniform of the n-f others.
    if (spares < f) {
      out.spare_exhaustion_time = 1.0;
    } else if (spares < n) {
      out.spare_exhaustion_time = later_step(exponential_order_statistic(rng, n - f, spares + 1 - f),
                                             rate_);
    } else {
      out.spare_exhaustion_time = kNever;
    }
    return out;
  }

 private:
  double rate_;  // -log(1 - p)
  bool buses_;
};

/// clustered and bus_clustered. Every node (bus) has a geometric seed clock;
/// a seed firing at time t takes the units it cascades to down at t + 1.
/// The snapshot is the step-1 seeds plus everything they cascade to.
/// clustered cascades along fabric adjacency; so does bus_clustered on a
/// point-to-point fabric (the bus of node v spans v's adjacency), while on
/// the realized bus machine a seed bus takes down the buses driven by its
/// members (a shorted bus stresses every transceiver hanging on it).
class ClusteredModel final : public ClockedModel {
 public:
  ClusteredModel(double p, bool buses)
      : ClockedModel(p), rate_(-std::log1p(-p)), buses_(buses) {}

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
    const std::size_t f = draw_fault_count(fabric, rng);
    const FaultSet seeds = FaultSet::random(n, f, rng);
    std::size_t reach = f;
    for (const NodeId v : seeds.nodes()) reach += takes_down(v).size();
    std::vector<NodeId> faulty;
    faulty.reserve(reach);
    faulty.assign(seeds.nodes().begin(), seeds.nodes().end());
    for (const NodeId v : seeds.nodes()) {
      for (const NodeId w : takes_down(v)) faulty.push_back(w);
    }
    FaultDraw out;
    out.faults = FaultSet(n, std::move(faulty));
    if (buses_) out.bus_faults.assign(out.faults.nodes().begin(), out.faults.nodes().end());
    if (spares < f) {
      // At least k+1 seeds die at step 1, before any cascade.
      out.spare_exhaustion_time = 1.0;
    } else if (spares < n) {
      out.spare_exhaustion_time = exhaustion_time(n, seeds.nodes(), spares, rng, takes_down);
    } else {
      out.spare_exhaustion_time = kNever;
    }
    return out;
  }

 private:
  /// The time of the (k+1)-st death when at most k units seed at step 1.
  /// Only the k+1 smallest seed clocks matter: those k+1 seeds are dead by
  /// the largest of them, and every death before it comes from one of them
  /// or from its cascade. So the step-1 seeds are joined by the (k+1-f)
  /// earliest other seeds, whose clocks are sequential order statistics and
  /// whose units are drawn uniformly without replacement from the units not
  /// yet seeded; then the seeds (at t) and their cascades (at t + 1) are
  /// replayed in time order until k+1 distinct units are dead.
  template <class TakesDown>
  double exhaustion_time(std::size_t n, const std::vector<NodeId>& first, unsigned spares,
                         TrialRng& rng, TakesDown takes_down) const {
    const std::size_t f = first.size();
    const std::size_t later = spares + 1 - f;
    std::vector<std::pair<NodeId, double>> seeds;  // ascending clocks
    seeds.reserve(spares + 1);
    for (const NodeId v : first) seeds.emplace_back(v, 1.0);
    OrderedSample units(n - f);
    ExponentialOrderStatistics order(n - f);
    for (std::size_t i = 0; i < later; ++i) {
      // The next pick, as a unit outside the sorted step-1 seeds.
      std::size_t unit = units.next(rng);
      for (const NodeId s : first) {
        if (s > unit) break;
        ++unit;
      }
      seeds.emplace_back(static_cast<NodeId>(unit), later_step(order.next(rng), rate_));
    }
    std::vector<NodeId> dead;
    dead.reserve(spares + 1);
    const auto dies = [&](NodeId v) {
      if (std::find(dead.begin(), dead.end(), v) == dead.end()) dead.push_back(v);
      return dead.size() > spares;
    };
    // Merge the seed times with the cascade times (each seed's + 1). The
    // k+1 seeds are distinct, so the loop ends by the last seed.
    std::size_t next_cascade = 0;
    for (std::size_t i = 0;;) {
      if (i < seeds.size() && seeds[i].second <= seeds[next_cascade].second + 1.0) {
        if (dies(seeds[i].first)) return seeds[i].second;
        ++i;
      } else {
        const auto& [v, t] = seeds[next_cascade++];
        for (const NodeId w : takes_down(v)) {
          if (dies(w)) return t + 1.0;
        }
      }
    }
  }

  double rate_;  // -log(1 - p)
  bool buses_;
  std::vector<std::vector<NodeId>> takes_down_;  // bus machine only: a -> buses a takes down
};

class WeibullModel final : public ClockedModel {
 public:
  // A life is past the horizon iff its unit exponential exceeds
  // (horizon/scale)^shape, so P[life <= horizon] = 1 - exp(-that).
  WeibullModel(double shape, double scale, double horizon)
      : ClockedModel(-std::expm1(-std::pow(horizon / scale, shape))),
        shape_(shape),
        scale_(scale),
        horizon_exponential_(std::pow(horizon / scale, shape)) {}

  std::string name() const override { return "weibull"; }

  FaultDraw draw(const Graph& fabric, unsigned spares, TrialRng& rng) const override {
    const std::size_t n = fabric.num_nodes();
    const std::size_t f = draw_fault_count(fabric, rng);
    FaultDraw out;
    out.faults = FaultSet::random(n, f, rng);
    // Inverse-CDF Weibull(shape, scale) life of a unit exponential.
    const auto life = [this](double e) { return scale_ * std::pow(e, 1.0 / shape_); };
    if (spares < f) {
      // The (k+1)-st smallest of the f lives inside the horizon: its uniform
      // is q times the (k+1)-st smallest of f uniforms on (0, 1).
      const double v = -std::expm1(-exponential_order_statistic(rng, f, spares + 1));
      out.spare_exhaustion_time = life(-std::log1p(-fault_probability() * v));
    } else if (spares < n) {
      out.spare_exhaustion_time =
          life(horizon_exponential_ + exponential_order_statistic(rng, n - f, spares + 1 - f));
    } else {
      out.spare_exhaustion_time = kNever;
    }
    return out;
  }

 private:
  double shape_;
  double scale_;
  double horizon_exponential_;
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
    budget_ = BinomialTable(n, p_);
  }

  FaultDraw draw(const Graph& fabric, unsigned spares, TrialRng& rng) const override {
    const std::size_t n = fabric.num_nodes();
    if (order_.size() != n) {
      throw std::logic_error("AdversarialModel: draw() before prepare()");
    }
    // The attack budget is Binomial(n, p): the adversary converts the same
    // expected failure mass as the iid model into worst-case placements.
    const std::size_t budget = budget_.draw(rng);
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
  BinomialTable budget_;
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
