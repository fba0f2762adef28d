#include "campaign/runner.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/bench_json.hpp"
#include "campaign/fault_models.hpp"
#include "campaign/rng.hpp"
#include "ft/bus_ft.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/spares.hpp"
#include "ft/tolerance.hpp"
#include "graph/algorithms.hpp"
#include "graph/bus_graph.hpp"
#include "graph/subgraph.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/reconfigured_routing.hpp"
#include "sim/schedule.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::campaign {

using analysis::JsonValue;
using analysis::JsonWriter;

// --- streaming statistics ---------------------------------------------------

void StreamingStats::add(double x) {
  ++count;
  const double delta = x - mean;
  mean += delta / static_cast<double>(count);
  m2 += delta * (x - mean);
  min = std::min(min, x);
  max = std::max(max, x);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  // Chan's pairwise update; merge order is fixed by the runner.
  const double total = static_cast<double>(count) + static_cast<double>(other.count);
  const double delta = other.mean - mean;
  mean += delta * (static_cast<double>(other.count) / total);
  m2 += other.m2 +
        delta * delta * (static_cast<double>(count) * static_cast<double>(other.count) / total);
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

double StreamingStats::variance() const {
  return count < 2 ? 0.0 : m2 / static_cast<double>(count - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials, double z) {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = phat + z2 / (2.0 * n);
  const double half = z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, (center - half) / denom), std::min(1.0, (center + half) / denom)};
}

double ScenarioResult::success_rate() const {
  return trials == 0 ? 0.0
                     : static_cast<double>(reconfig_success) / static_cast<double>(trials);
}

WilsonInterval ScenarioResult::success_ci(double z) const {
  return wilson_interval(reconfig_success, trials, z);
}

namespace {

using Kind = ResultField::Kind;

constexpr ResultField counter(const char* key, std::uint64_t ScenarioResult::*m) {
  return {key, Kind::Counter, m, nullptr};
}
constexpr ResultField cell_constant(const char* key, std::uint64_t ScenarioResult::*m) {
  return {key, Kind::CellConstant, m, nullptr};
}
constexpr ResultField stats(const char* key, StreamingStats ScenarioResult::*m) {
  return {key, Kind::Stats, nullptr, m};
}

constexpr ResultField kResultFields[] = {
    counter("trials", &ScenarioResult::trials),
    counter("reconfig_success", &ScenarioResult::reconfig_success),
    counter("over_budget", &ScenarioResult::over_budget),
    stats("fault_count", &ScenarioResult::fault_count),
    stats("reconfigured_diameter", &ScenarioResult::reconfigured_diameter),
    stats("degraded_diameter", &ScenarioResult::degraded_diameter),
    counter("degraded_disconnected", &ScenarioResult::degraded_disconnected),
    stats("route_stretch", &ScenarioResult::route_stretch),
    stats("mttf", &ScenarioResult::mttf),
    counter("mttf_censored", &ScenarioResult::mttf_censored),
    cell_constant("collective_rounds", &ScenarioResult::collective_rounds),
    cell_constant("collective_baseline_cycles", &ScenarioResult::collective_baseline_cycles),
    stats("collective_slowdown", &ScenarioResult::collective_slowdown),
    stats("collective_hop_cycles", &ScenarioResult::collective_hop_cycles),
    stats("collective_congestion", &ScenarioResult::collective_congestion),
    counter("collective_unreachable", &ScenarioResult::collective_unreachable),
    stats("bus_fault_count", &ScenarioResult::bus_fault_count),
    stats("traffic_delivered", &ScenarioResult::traffic_delivered),
    stats("traffic_latency", &ScenarioResult::traffic_latency),
    stats("traffic_congestion", &ScenarioResult::traffic_congestion),
    counter("traffic_timed_out", &ScenarioResult::traffic_timed_out),
};

/// Merges two curves sorted by fault count; points at the same count fold
/// through `add(into, from)`. The runner merges blocks in order, so the
/// double additions happen in a fixed order and come out bit-identical for
/// any thread count or shard split.
template <class Point, class Add>
std::vector<Point> merge_curves(const std::vector<Point>& a, const std::vector<Point>& b,
                                Add add) {
  std::vector<Point> out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].faults < b[j].faults)) {
      out.push_back(a[i++]);
    } else if (i == a.size() || b[j].faults < a[i].faults) {
      out.push_back(b[j++]);
    } else {
      out.push_back(a[i++]);
      add(out.back(), b[j++]);
    }
  }
  return out;
}

}  // namespace

std::span<const ResultField> result_fields() { return kResultFields; }

void ScenarioResult::merge(const ScenarioResult& other) {
  for (const ResultField& f : kResultFields) {
    switch (f.kind) {
      case Kind::Counter: this->*f.counter += other.*f.counter; break;
      case Kind::Stats: (this->*f.stats).merge(other.*f.stats); break;
      case Kind::CellConstant: break;
    }
  }
  slowdown_curve = merge_curves(slowdown_curve, other.slowdown_curve,
                                [](SlowdownPoint& p, const SlowdownPoint& q) {
                                  p.trials += q.trials;
                                  p.unreachable += q.unreachable;
                                  p.slowdown_sum += q.slowdown_sum;
                                });
  survival_curve = merge_curves(survival_curve, other.survival_curve,
                                [](SurvivalPoint& p, const SurvivalPoint& q) {
                                  p.trials += q.trials;
                                  p.survived += q.survived;
                                });
}

// --- scenario execution ------------------------------------------------------

struct TopologyTarget {
  Graph graph;
  std::uint32_t diameter = 0;
  // collective metric (point-to-point families only): the full-N schedule
  // and its run on the healthy target — the baseline every slowdown is
  // priced against, and the exact result of every successful trial.
  std::optional<sim::Schedule> schedule;
  sim::ScheduleRunResult healthy_collective;
};

namespace {

TopologyTarget build_target(const MetricSet& metrics, const TopologySpec& topology) {
  // The diameters are closed forms, pinned against BFS by the
  // TargetDiameters tests: h for B_{m,h} (the bus machine's target is
  // B_{2,h}) and 2h - 1 for SE_h.
  TopologyTarget t;
  const unsigned h = topology.digits;
  switch (topology.family) {
    case TopologyFamily::DeBruijn:
      t.graph = debruijn_graph({.base = topology.base, .digits = h});
      t.diameter = h;
      break;
    case TopologyFamily::ShuffleExchange:
      t.graph = shuffle_exchange_graph(h);
      t.diameter = 2 * h - 1;
      break;
    case TopologyFamily::Bus:
      t.graph = debruijn_base2(h);
      t.diameter = h;
      break;
  }
  if (metrics.collective && topology.family != TopologyFamily::Bus) {
    // Compile the schedule once and price the healthy machine — the
    // denominator of every trial's slowdown.
    const auto n = static_cast<std::uint32_t>(t.graph.num_nodes());
    t.schedule = sim::build_schedule(sim::schedule_kind_from_name(metrics.collective_schedule), n);
    std::vector<NodeId> identity_ranks(n);
    for (NodeId v = 0; v < n; ++v) identity_ranks[v] = v;
    t.healthy_collective = sim::execute_schedule(sim::Machine::direct(t.graph), t.graph,
                                                 *t.schedule, identity_ranks);
  }
  return t;
}

/// Immutable per-scenario state shared (read-only) by all worker threads.
struct ScenarioContext {
  ScenarioCase cell;
  std::shared_ptr<const TopologyTarget> topo;  // shared by the topology's cells
  Graph fabric;                     // point-to-point FT graph / realized bus graph
  std::optional<BusGraph> bus;      // set for the bus family
  std::unique_ptr<FaultModel> model;
  std::uint64_t seed = 0;
  MetricSet metrics;

  // check_tolerance_pairwise proved that the monotone embedding survives
  // every fault set of at most `spares` faults on this fabric, so a
  // within-budget draw needs no scan.
  bool proven = false;

  // bus-fault models: the cell draws bus faults that must be resolved onto
  // the realized graph (bus-family cells) before the survival check.
  bool bus_model = false;

  // traffic metric (point-to-point families only): the trace is parsed once
  // per cell, the per-trial packet count is fixed by the spec, and the cycle
  // cap is a deterministic function of the workload (so a saturated hotspot
  // counts as timed_out instead of stalling the trial loop).
  bool traffic = false;
  std::vector<sim::Packet> trace_packets;
  std::uint64_t traffic_packets = 0;
  std::uint64_t traffic_max_cycles = 0;

  const Graph& target() const { return topo->graph; }
};

ScenarioContext build_context(const ScenarioSpec& spec, const ScenarioCase& cell,
                              std::shared_ptr<const TopologyTarget> topo) {
  ScenarioContext ctx;
  ctx.cell = cell;
  ctx.topo = std::move(topo);
  ctx.seed = spec.seed;
  ctx.metrics = spec.metrics;
  const unsigned h = cell.topology.digits;
  const unsigned k = cell.spares;
  switch (cell.topology.family) {
    case TopologyFamily::DeBruijn:
      ctx.fabric = ft_debruijn_graph({.base = cell.topology.base, .digits = h, .spares = k});
      break;
    case TopologyFamily::ShuffleExchange:
      // Route 2 (natural labeling): self-contained, no VF2 search needed.
      ctx.fabric = ft_shuffle_exchange_natural(h, k).ft_graph;
      break;
    case TopologyFamily::Bus:
      ctx.bus = bus_ft_debruijn_base2(h, k);
      // Fault models and graph metrics act on the point-to-point connectivity
      // the restricted driver<->member discipline realizes.
      ctx.fabric = ctx.bus->realized_graph();
      break;
  }
  ctx.model = make_fault_model(cell.fault_model);
  ctx.model->prepare(ctx.fabric, k);
  // Bus-family cells additionally expose the bus structure: clustered bus
  // correlation follows shared-membership, not just realized adjacency.
  if (ctx.bus) ctx.model->prepare_bus(*ctx.bus, k);
  ctx.bus_model = cell.fault_model.kind == FaultModelKind::BusIid ||
                  cell.fault_model.kind == FaultModelKind::BusClustered;
  ctx.proven = check_tolerance_pairwise(ctx.target(), ctx.fabric, k).tolerant;
  if (spec.metrics.traffic && cell.topology.family != TopologyFamily::Bus) {
    ctx.traffic = true;
    const TrafficSpec& ts = spec.metrics.traffic_spec;
    std::uint64_t horizon = 0;
    if (ts.pattern == "trace") {
      // Parsed once per cell; endpoints are range-checked against this cell's
      // target (the spec parser only checked the grid's largest family).
      ctx.trace_packets = sim::trace_traffic(ts.trace, ctx.target().num_nodes());
      ctx.traffic_packets = ctx.trace_packets.size();
      for (const sim::Packet& p : ctx.trace_packets) {
        horizon = std::max(horizon, p.inject_cycle);
      }
    } else {
      ctx.traffic_packets = ts.packets_per_node * ctx.target().num_nodes();
    }
    // Generous but bounded: even a single-sink hotspot drains at >= 1
    // packet/cycle once the queues form, so 4x the packet count past the
    // injection horizon only triggers on genuinely wedged (disconnected)
    // flows, which run_packets already classifies as undeliverable.
    ctx.traffic_max_cycles = horizon + 4 * ctx.traffic_packets + 1024;
  }
  return ctx;
}

/// Dense per-block accumulators, folded into the sparse curves once the
/// block completes (fold_histogram). Keeping them dense makes the per-trial
/// hot path an array index, and folding in block order keeps the report
/// deterministic.
struct BlockScratch {
  std::vector<std::uint64_t> hist;            // trials by drawn fault count
  std::vector<std::uint64_t> survived;        // successes by drawn fault count
  std::vector<std::uint64_t> coll_trials;     // collective runs by fault count
  std::vector<std::uint64_t> coll_unreachable;
  std::vector<double> coll_slowdown_sum;

  /// The block's simulator of the healthy target, built on first use (a
  /// cell whose trials run no collective or traffic never builds it).
  sim::PacketSimulator& healthy(const ScenarioContext& ctx) {
    if (!healthy_sim) healthy_sim.emplace(sim::Machine::direct(ctx.target()), ctx.target());
    return *healthy_sim;
  }
  std::optional<sim::PacketSimulator> healthy_sim;
};

/// Runs one trial and folds it straight into `acc`.
void run_trial(const ScenarioContext& ctx, std::uint64_t trial_idx, ScenarioResult& acc,
               BlockScratch& scratch) {
  std::vector<std::uint64_t>& dense_hist = scratch.hist;
  std::vector<std::uint64_t>& dense_survived = scratch.survived;
  TrialRng rng = TrialRng::for_trial(ctx.seed, ctx.cell.index, trial_idx);
  const FaultDraw draw = ctx.model->draw(ctx.fabric, ctx.cell.spares, rng);
  const std::uint64_t faults = draw.faults.count();

  const bool within_budget = faults <= ctx.cell.spares;
  bool success = false;
  if (within_budget) {
    // On bus cells the fabric is the realized graph: an edge joins exactly
    // the pairs some bus lets communicate (driver <-> member), so the one
    // survival check serves every family. On a proven cell every fault set
    // within the budget survives, so only unproven fabrics scan.
    if (ctx.bus && !draw.bus_faults.empty()) {
      // Section V discipline: bus faults resolve to driver-node faults on the
      // realized graph, and the merged set must still fit the spare budget.
      const std::optional<FaultSet> resolved = resolve_bus_faults(
          *ctx.bus, ctx.cell.spares, draw.faults.nodes(), draw.bus_faults);
      success = resolved.has_value() &&
                (ctx.proven || monotone_embedding_survives(ctx.target(), ctx.fabric, *resolved));
    } else {
      success = ctx.proven || monotone_embedding_survives(ctx.target(), ctx.fabric, draw.faults);
    }
  }

  ++acc.trials;
  acc.fault_count.add(static_cast<double>(faults));
  if (ctx.bus_model) acc.bus_fault_count.add(static_cast<double>(draw.bus_faults.size()));
  if (!within_budget) ++acc.over_budget;
  if (success) ++acc.reconfig_success;

  if (dense_hist.size() <= faults) {
    dense_hist.resize(faults + 1, 0);
    dense_survived.resize(faults + 1, 0);
  }
  ++dense_hist[faults];
  if (success) ++dense_survived[faults];

  // Stretch runs on both point-to-point families: de Bruijn via the shift
  // algebra, shuffle-exchange via the exact SE distance (the bus machine has
  // no logical routing engine to audit).
  const bool se_family = ctx.cell.topology.family == TopologyFamily::ShuffleExchange;
  const bool want_stretch =
      ctx.metrics.stretch && success &&
      (ctx.cell.topology.family == TopologyFamily::DeBruijn || se_family);
  const bool want_collective = ctx.topo->schedule.has_value();
  if (success && (ctx.metrics.diameter || want_stretch)) {
    // One reconfigured machine serves both metrics (Machine copies the fabric
    // CSR, so building it twice per trial would double that cost).
    const sim::Machine machine =
        sim::Machine::reconfigured(ctx.fabric, draw.faults, ctx.target().num_nodes());
    if (ctx.metrics.diameter) {
      // Measure (not assume) the paper's claim: the reconfigured machine
      // presents the intact target, so its logical diameter must equal the
      // target's.
      const std::uint32_t d = diameter(machine.live_logical_graph(ctx.target()));
      if (d != kUnreachable) acc.reconfigured_diameter.add(static_cast<double>(d));
    }
    if (want_stretch) {
      if (ctx.metrics.stretch_sample_pairs == 0) {
        acc.route_stretch.add(
            se_family
                ? sim::max_route_stretch_se(machine, ctx.cell.topology.digits)
                : sim::max_route_stretch(machine, ctx.cell.topology.base,
                                         ctx.cell.topology.digits));
      } else {
        // Counter-based pair sample: drawn from the trial's own RNG stream
        // (after the fault draw), so the report stays byte-identical across
        // thread counts and checkpoint/resume. Self-pairs are dropped rather
        // than redrawn to keep the stream consumption fixed.
        const std::uint64_t n_nodes = ctx.target().num_nodes();
        std::vector<std::pair<NodeId, NodeId>> pairs;
        pairs.reserve(ctx.metrics.stretch_sample_pairs);
        for (std::uint64_t i = 0; i < ctx.metrics.stretch_sample_pairs; ++i) {
          const NodeId s = static_cast<NodeId>(rng.next_u64() % n_nodes);
          const NodeId d = static_cast<NodeId>(rng.next_u64() % n_nodes);
          if (s != d) pairs.emplace_back(s, d);
        }
        acc.route_stretch.add(
            se_family
                ? sim::max_route_stretch_se_sampled(machine, ctx.cell.topology.digits, pairs)
                : sim::max_route_stretch_sampled(machine, ctx.cell.topology.base,
                                                 ctx.cell.topology.digits, pairs));
      }
    }
  } else if (!success && ctx.metrics.diameter) {
    // Degraded machine: whatever the survivors still form.
    const InducedSubgraph survivors =
        induced_subgraph_excluding(ctx.fabric, draw.faults.nodes());
    const std::uint32_t d =
        survivors.graph.num_nodes() == 0 ? kUnreachable : diameter(survivors.graph);
    if (d == kUnreachable) {
      ++acc.degraded_disconnected;
    } else {
      acc.degraded_diameter.add(static_cast<double>(d));
    }
  }

  // The simulator the collective and the traffic run on. A successful trial
  // passes monotone_embedding_survives (checked, or proven for the cell):
  // every target node sits on a live host and every target edge on a live
  // link, so the live logical graph is the target and the engine cannot tell
  // the reconfigured machine from the healthy target — the trial borrows the
  // block's healthy simulator. A failed trial's bare target with its faults
  // marked dead gets its own, unless every target node died — then nothing
  // runs.
  const std::uint64_t n_nodes = ctx.target().num_nodes();
  std::optional<sim::PacketSimulator> degraded_sim;
  sim::PacketSimulator* engine = nullptr;
  if (want_collective || ctx.traffic) {
    if (success) {
      engine = &scratch.healthy(ctx);
    } else {
      std::vector<NodeId> hit;
      for (const NodeId f : draw.faults.nodes()) {
        if (f < n_nodes) hit.push_back(f);
      }
      if (hit.size() < n_nodes) {
        engine = &degraded_sim.emplace(
            sim::Machine::direct_with_faults(ctx.target(), FaultSet(n_nodes, std::move(hit))),
            ctx.target());
      }
    }
  }

  if (want_collective) {
    // Run the collective through the packet engine: the reconfigured machine
    // runs the full-N schedule exactly as the healthy target does (the
    // operational dilation-1 claim — the slowdown is exactly 1.0), so it
    // takes the cell's healthy run; a degraded bare target runs a schedule
    // compiled over its survivors, priced against the *same survivors'
    // schedule on the healthy target* so the slowdown isolates the rerouting
    // cost instead of crediting the smaller job.
    sim::ScheduleRunResult run;
    std::uint64_t baseline_cycles = ctx.topo->healthy_collective.total_cycles;
    if (success) {
      run = ctx.topo->healthy_collective;
    } else if (engine != nullptr) {
      std::vector<NodeId> survivors;
      for (NodeId v = 0; v < n_nodes; ++v) {
        if (!draw.faults.is_faulty(v)) survivors.push_back(v);
      }
      const sim::Schedule sched = sim::build_schedule(
          ctx.topo->schedule->kind, static_cast<std::uint32_t>(survivors.size()));
      run = sim::execute_schedule(*engine, sched, survivors);
      baseline_cycles = sim::execute_schedule(scratch.healthy(ctx), sched, survivors).total_cycles;
    }
    // else: every target node dead — counted unreachable below.
    if (scratch.coll_trials.size() <= faults) {
      scratch.coll_trials.resize(faults + 1, 0);
      scratch.coll_unreachable.resize(faults + 1, 0);
      scratch.coll_slowdown_sum.resize(faults + 1, 0.0);
    }
    ++scratch.coll_trials[faults];
    if (engine != nullptr && run.completed()) {
      const double slowdown =
          baseline_cycles == 0
              ? 1.0
              : static_cast<double>(run.total_cycles) / static_cast<double>(baseline_cycles);
      acc.collective_slowdown.add(slowdown);
      acc.collective_hop_cycles.add(static_cast<double>(run.total_hop_cycles));
      acc.collective_congestion.add(static_cast<double>(run.max_link_congestion));
      scratch.coll_slowdown_sum[faults] += slowdown;
    } else {
      ++acc.collective_unreachable;
      ++scratch.coll_unreachable[faults];
    }
  }

  if (ctx.traffic) {
    // The workload seed is drawn unconditionally (traces ignore it), so the
    // per-trial stream layout does not depend on the pattern and stays a
    // fixed function of the spec — the byte-identity invariant.
    const std::uint64_t traffic_seed = rng.next_u64();
    const TrafficSpec& ts = ctx.metrics.traffic_spec;
    std::vector<sim::Packet> packets;
    if (ts.pattern == "trace") {
      packets = ctx.trace_packets;
    } else if (ts.pattern == "zipf") {
      packets = sim::zipf_traffic(n_nodes, ctx.traffic_packets, ts.theta, traffic_seed);
    } else if (ts.pattern == "hotspot_burst") {
      // Hot nodes are re-drawn each trial (with replacement) from the trial's
      // own stream — exactly `hotspots` draws, keeping consumption constant.
      std::vector<NodeId> hot;
      hot.reserve(ts.hotspots);
      for (std::uint64_t i = 0; i < ts.hotspots; ++i) {
        hot.push_back(static_cast<NodeId>(rng.next_u64() % n_nodes));
      }
      packets = sim::hotspot_burst_traffic(n_nodes, ctx.traffic_packets, hot, ts.fraction_hot,
                                           ts.burst_cycles, traffic_seed);
    } else {
      packets = sim::uniform_traffic(n_nodes, ctx.traffic_packets, 0, traffic_seed);
    }
    if (engine != nullptr) {
      const sim::SimStats stats = engine->run(packets, ctx.traffic_max_cycles);
      acc.traffic_delivered.add(stats.delivered_fraction());
      if (stats.delivered > 0) acc.traffic_latency.add(stats.average_latency());
      acc.traffic_congestion.add(static_cast<double>(stats.max_queue_depth));
      acc.traffic_timed_out += stats.timed_out;
    } else {
      acc.traffic_delivered.add(0.0);  // every target node dead: nothing can inject
    }
  }

  if (ctx.metrics.mttf) {
    if (std::isfinite(draw.spare_exhaustion_time)) {
      acc.mttf.add(draw.spare_exhaustion_time);
    } else {
      ++acc.mttf_censored;
    }
  }
}

/// Sparse survival and slowdown curves from the dense per-block counters.
void fold_histogram(ScenarioResult& acc, const BlockScratch& scratch) {
  for (std::size_t f = 0; f < scratch.hist.size(); ++f) {
    if (scratch.hist[f] == 0) continue;
    acc.survival_curve.push_back({f, scratch.hist[f], scratch.survived[f]});
  }
  for (std::size_t f = 0; f < scratch.coll_trials.size(); ++f) {
    if (scratch.coll_trials[f] == 0) continue;
    acc.slowdown_curve.push_back(
        {f, scratch.coll_trials[f], scratch.coll_unreachable[f], scratch.coll_slowdown_sum[f]});
  }
}

/// Exact E[time of the (k+1)-st failure] when all n fabric nodes fail
/// independently with probability p per step: summing the survival function,
/// E = sum_{t >= 0} P[at most k of n failed by step t], with per-node
/// failure probability 1 - (1-p)^t by step t. This is the true expectation
/// of the empirical draw (simultaneous failures allowed); a model that lets
/// failures arrive one at a time overshoots once n*p stops being small.
///
/// The sum needs on the order of the MTTF itself in iterations, so a cap
/// bounds the work; past it we return NaN (report renders "-") rather than a
/// silently truncated number next to the empirical column it validates.
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

// --- result (de)serialization ------------------------------------------------

void write_stats(JsonWriter& w, const StreamingStats& s) {
  w.begin_object();
  w.key("count").value(s.count);
  w.key("mean").value(s.mean);
  w.key("m2").value(s.m2);
  if (s.count > 0) {
    w.key("min").value(s.min);
    w.key("max").value(s.max);
  }
  w.end_object();
}

StreamingStats parse_stats(const JsonValue& obj, const std::string& key) {
  const auto path = [&](const char* field) { return "\"" + key + "." + field + "\""; };
  const auto member = [&](const char* field) -> const JsonValue& {
    const JsonValue* v = obj.find(field);
    if (v == nullptr) throw std::runtime_error("campaign: missing " + path(field));
    return *v;
  };
  const auto number = [&](const char* field) {
    return analysis::json_number(member(field), path(field));
  };
  StreamingStats s;
  s.count = analysis::json_uint(member("count"), path("count"));
  s.mean = number("mean");
  s.m2 = number("m2");
  if (s.count > 0) {
    s.min = number("min");
    s.max = number("max");
  }
  return s;
}

/// A required member that may be null (NaN) — the analytic companions.
double number_or_nan(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = obj.at(key);
  return v.is_null() ? std::numeric_limits<double>::quiet_NaN()
                     : analysis::json_number(v, "\"" + key + "\"");
}

std::uint32_t uint32_at(const JsonValue& obj, const std::string& key) {
  const std::uint64_t v = analysis::json_uint_at(obj, key);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("campaign: \"" + key + "\" is out of range");
  }
  return static_cast<std::uint32_t>(v);
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

}  // namespace

// Exposed through runner.hpp for report.cpp's use as well.
void write_scenario_result(JsonWriter& w, const ScenarioResult& r) {
  w.begin_object();
  w.key("scenario_index").value(static_cast<std::uint64_t>(r.scenario_index));
  w.key("label").value(r.label);
  w.key("target_nodes").value(r.target_nodes);
  w.key("fabric_nodes").value(r.fabric_nodes);
  w.key("target_diameter").value(static_cast<std::uint64_t>(r.target_diameter));
  for (const ResultField& f : kResultFields) {
    w.key(f.key);
    if (f.kind == Kind::Stats) {
      write_stats(w, r.*f.stats);
    } else {
      w.value(r.*f.counter);
    }
  }
  w.key("survival_curve").begin_array();
  for (const SurvivalPoint& p : r.survival_curve) {
    w.begin_object();
    w.key("faults").value(p.faults);
    w.key("trials").value(p.trials);
    w.key("survived").value(p.survived);
    w.end_object();
  }
  w.end_array();
  w.key("slowdown_curve").begin_array();
  for (const SlowdownPoint& p : r.slowdown_curve) {
    w.begin_object();
    w.key("faults").value(p.faults);
    w.key("trials").value(p.trials);
    w.key("unreachable").value(p.unreachable);
    w.key("slowdown_sum").value(p.slowdown_sum);
    w.end_object();
  }
  w.end_array();
  w.key("analytic_survival").value(r.analytic_survival);  // NaN -> null
  w.key("analytic_mttf").value(r.analytic_mttf);
  // Derived convenience fields (ignored by parse_scenario_result).
  const WilsonInterval ci = r.success_ci();
  w.key("success_rate").value(r.success_rate());
  w.key("success_ci95_lo").value(ci.lo);
  w.key("success_ci95_hi").value(ci.hi);
  w.end_object();
}

ScenarioResult parse_scenario_result(const JsonValue& obj) {
  using analysis::json_uint_at;
  ScenarioResult r;
  r.scenario_index = json_uint_at(obj, "scenario_index");
  const JsonValue& label = obj.at("label");
  if (label.kind != JsonValue::Kind::String) {
    throw std::runtime_error("campaign: \"label\" must be a string");
  }
  r.label = label.string;
  r.target_nodes = json_uint_at(obj, "target_nodes");
  r.fabric_nodes = json_uint_at(obj, "fabric_nodes");
  r.target_diameter = uint32_at(obj, "target_diameter");
  for (const ResultField& f : kResultFields) {
    if (f.kind == Kind::Stats) {
      r.*f.stats = parse_stats(obj.at(f.key), f.key);
    } else {
      r.*f.counter = json_uint_at(obj, f.key);
    }
  }
  for (const JsonValue& p : obj.at("survival_curve").array) {
    r.survival_curve.push_back(
        {json_uint_at(p, "faults"), json_uint_at(p, "trials"), json_uint_at(p, "survived")});
  }
  for (const JsonValue& p : obj.at("slowdown_curve").array) {
    r.slowdown_curve.push_back({json_uint_at(p, "faults"), json_uint_at(p, "trials"),
                                json_uint_at(p, "unreachable"),
                                analysis::json_number(p.at("slowdown_sum"), "\"slowdown_sum\"")});
  }
  r.analytic_survival = number_or_nan(obj, "analytic_survival");
  r.analytic_mttf = number_or_nan(obj, "analytic_mttf");
  return r;
}

// --- checkpoint (de)serialization -------------------------------------------

std::string checkpoint_to_json(const ScenarioSpec& spec, const Checkpoint& ckpt) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("ftdb-campaign-checkpoint-v2");
  // Hex strings, not JSON numbers: 64-bit fingerprints do not survive the
  // parser's double representation.
  w.key("fingerprint").value(fingerprint_hex(spec_fingerprint(spec)));
  w.key("shard").begin_object();
  w.key("index").value(static_cast<std::uint64_t>(ckpt.shard.index));
  w.key("count").value(static_cast<std::uint64_t>(ckpt.shard.count));
  w.key("fingerprint").value(fingerprint_hex(shard_fingerprint(spec, ckpt.shard)));
  w.end_object();
  // The block size the partials were cut with: partials from a different
  // partition cannot be merged in order, so parse rejects a mismatch.
  w.key("trial_block").value(kTrialBlock);
  w.key("cells").begin_array();
  for (const CellProgress& c : ckpt.cells) {
    w.begin_object();
    w.key("scenario_index").value(static_cast<std::uint64_t>(c.scenario_index));
    w.key("prefix_blocks").value(c.prefix_blocks);
    if (c.prefix_blocks > 0) {
      w.key("prefix");
      write_scenario_result(w, c.prefix);
    }
    if (!c.extra.empty()) {
      w.key("extra").begin_array();
      for (const auto& [block, partial] : c.extra) {
        w.begin_object();
        w.key("block").value(block);
        w.key("partial");
        write_scenario_result(w, partial);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

Checkpoint parse_checkpoint(const std::string& json_text) {
  using analysis::json_uint_at;
  const JsonValue doc = analysis::json_parse(json_text);
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "ftdb-campaign-checkpoint-v2") {
    throw std::runtime_error(
        "campaign: not an ftdb-campaign-checkpoint-v2 document (v1 checkpoints are "
        "scenario-granular; rerun the campaign to produce a v2 checkpoint)");
  }
  if (json_uint_at(doc, "trial_block") != kTrialBlock) {
    throw std::runtime_error("campaign: checkpoint was cut with a different trial block size");
  }
  Checkpoint ckpt;
  ckpt.fingerprint = std::strtoull(doc.at("fingerprint").string.c_str(), nullptr, 16);
  const JsonValue& shard = doc.at("shard");
  ckpt.shard.index = uint32_at(shard, "index");
  ckpt.shard.count = uint32_at(shard, "count");
  ckpt.shard_stamp = std::strtoull(shard.at("fingerprint").string.c_str(), nullptr, 16);
  std::size_t last_index = 0;
  bool first = true;
  for (const JsonValue& c : doc.at("cells").array) {
    CellProgress cell;
    cell.scenario_index = json_uint_at(c, "scenario_index");
    if (!first && cell.scenario_index <= last_index) {
      throw std::runtime_error("campaign: checkpoint cells out of order or duplicated");
    }
    first = false;
    last_index = cell.scenario_index;
    cell.prefix_blocks = json_uint_at(c, "prefix_blocks");
    if (cell.prefix_blocks > 0) cell.prefix = parse_scenario_result(c.at("prefix"));
    if (const JsonValue* extra = c.find("extra")) {
      std::uint64_t last_block = 0;
      for (const JsonValue& e : extra->array) {
        const std::uint64_t block = json_uint_at(e, "block");
        if (block < cell.prefix_blocks ||
            (!cell.extra.empty() && block <= last_block)) {
          throw std::runtime_error("campaign: checkpoint extra blocks out of order");
        }
        last_block = block;
        cell.extra.emplace_back(block, parse_scenario_result(e.at("partial")));
      }
    }
    ckpt.cells.push_back(std::move(cell));
  }
  return ckpt;
}

void check_cell_progress(const CellProgress& cp, std::uint64_t trials, const std::string& where) {
  const std::uint64_t blocks = num_trial_blocks(trials);
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(where + " cell " + std::to_string(cp.scenario_index) + " " + what);
  };
  if (cp.prefix_blocks > blocks) fail("claims more blocks than the cell has");
  if (cp.prefix.trials != trials_in_prefix(trials, cp.prefix_blocks)) {
    fail("carries a prefix trial count inconsistent with its block count");
  }
  for (const auto& [block, partial] : cp.extra) {
    if (block < cp.prefix_blocks || block >= blocks) fail("has an out-of-range extra block");
    if (partial.trials != trials_in_block(trials, block)) {
      fail("has an extra block with an inconsistent trial count");
    }
  }
}

// --- whole-file I/O ------------------------------------------------------------

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("campaign: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file_atomically(const std::string& path, const std::string& text, bool fsync) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const std::string& what, int fd) {
    const std::string why = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("campaign: " + what + ": " + why);
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot open " + tmp, -1);
  const char* data = text.data();
  std::size_t len = text.size();
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed for " + tmp, fd);
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  if (fsync && ::fsync(fd) != 0) fail("fsync failed for " + tmp, fd);
  // close() can report a deferred write error; the fd is released either way.
  if (::close(fd) != 0) fail("close failed for " + tmp, -1);
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("rename " + tmp + " -> " + path, -1);
  if (fsync) {
    // The rename is durable only once the directory entry is.
    const auto slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
    if (dfd < 0) fail("cannot open directory " + dir, -1);
    if (::fsync(dfd) != 0) fail("fsync failed for directory " + dir, dfd);
    if (::close(dfd) != 0) fail("close failed for directory " + dir, -1);
  }
}

// --- the work-stealing campaign scheduler ------------------------------------

namespace {

/// One schedulable unit: block `block` of the `slot`-th owned cell.
struct WorkUnit {
  std::uint32_t slot = 0;
  std::uint64_t block = 0;
};

/// A lock-free Chase–Lev work-stealing deque, one per worker (memory-order
/// formulation after Lê/Pop/Cohen/Nardelli, PPoPP'13). The owner pops from
/// the bottom; thieves CAS the top. Two campaign-specific simplifications
/// keep it simple and TSan-clean without the usual circular-buffer hazard:
/// the buffer is bounded (every unit is seeded before any worker starts, so
/// there is no owner push racing a thief's buffer read — the array is
/// immutable once the pool spawns), and the seed is stored *reversed* so the
/// owner's pop-bottom yields the original front order (cell-then-block,
/// keeping the pending maps small and the scenario contexts warm) while
/// thieves take the original back — exactly the old mutex deque's policy.
/// All units are enqueued before the workers start, so once a deque reads
/// empty it stays empty: an empty sweep over every deque means no unstarted
/// work remains.
class StealDeque {
 public:
  void seed(const std::vector<WorkUnit>& units) {
    buf_.assign(units.rbegin(), units.rend());
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(static_cast<std::int64_t>(buf_.size()), std::memory_order_relaxed);
  }

  /// Owner-only: take the most recently seeded end (original front order).
  bool pop_front(WorkUnit& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t <= b) {
      out = buf_[static_cast<std::size_t>(b)];
      if (t == b) {
        // Last element: race the thieves for it.
        const bool won = top_.compare_exchange_strong(
            t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_relaxed);
        return won;
      }
      return true;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return false;
  }

  /// Thief: take the oldest-seeded end (original back). Retries internally on
  /// a lost CAS, so false means the deque was genuinely empty when observed.
  bool steal_back(WorkUnit& out) {
    for (;;) {
      std::int64_t t = top_.load(std::memory_order_acquire);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::int64_t b = bottom_.load(std::memory_order_acquire);
      if (t >= b) return false;
      out = buf_[static_cast<std::size_t>(t)];
      if (top_.compare_exchange_weak(t, t + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed)) {
        return true;
      }
    }
  }

 private:
  std::vector<WorkUnit> buf_;  // immutable between seed() and the last pop
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
};

/// Mutable per-cell reduction state. `mu` guards everything below it; the
/// runner is built lazily on the first block that touches the cell and freed
/// on finalization.
struct CellState {
  ScenarioCase cell;
  std::uint64_t num_blocks = 0;

  std::once_flag runner_once;
  std::optional<CellRunner> runner;

  std::mutex mu;
  ScenarioResult prefix;                          // merged blocks [0, merged_blocks)
  std::uint64_t merged_blocks = 0;
  std::map<std::uint64_t, ScenarioResult> pending;  // completed out-of-order blocks
  bool finalized = false;
};

/// Fills the cell-level metadata and analytic companions once every block has
/// merged (building the runner if the cell completed purely from
/// checkpointed blocks), then drops the runner and the cell's claim on its
/// topology's target: the graphs are the heavy part.
void finalize_cell(const ScenarioSpec& spec, TargetTable& targets, CellState& st) {
  if (!st.runner) st.runner.emplace(spec, st.cell, targets);
  st.runner->finalize(st.prefix);
  st.finalized = true;
  st.runner.reset();
  targets.release(st.cell);
}

}  // namespace

CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options) {
  if (spec.trials == 0) throw std::runtime_error("campaign: trials must be positive");
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  if (cells.empty()) throw std::runtime_error("campaign: empty scenario grid");
  validate_shard(options.shard, cells.size());

  CampaignResult result;
  result.spec = spec;
  result.shard = options.shard;
  result.scenarios.resize(cells.size());

  // Owned cells, in grid order.
  std::vector<std::unique_ptr<CellState>> states;
  for (const ScenarioCase& cell : cells) {
    if (!options.shard.owns(cell.index)) continue;
    auto st = std::make_unique<CellState>();
    st->cell = cell;
    st->num_blocks = num_trial_blocks(spec.trials);
    st->prefix.scenario_index = cell.index;
    states.push_back(std::move(st));
  }
  std::vector<ScenarioCase> owned_cells;
  for (const auto& st : states) owned_cells.push_back(st->cell);
  TargetTable targets(spec, owned_cells);

  // --- resume: seed the reduction states from the checkpoint ----------------
  if (options.resume && !options.checkpoint_path.empty()) {
    std::error_code ec;
    if (std::filesystem::exists(options.checkpoint_path, ec)) {
      const Checkpoint ckpt = parse_checkpoint(read_text_file(options.checkpoint_path));
      if (ckpt.fingerprint != spec_fingerprint(spec)) {
        throw std::runtime_error(
            "campaign: checkpoint was produced by a different spec (fingerprint mismatch)");
      }
      if (ckpt.shard_stamp != shard_fingerprint(spec, options.shard)) {
        throw std::runtime_error("campaign: checkpoint belongs to shard " + ckpt.shard.label() +
                                 ", not " + options.shard.label());
      }
      for (const CellProgress& cp : ckpt.cells) {
        auto it = std::find_if(states.begin(), states.end(), [&](const auto& st) {
          return st->cell.index == cp.scenario_index;
        });
        if (it == states.end()) {
          throw std::runtime_error("campaign: checkpoint scenario index " +
                                   std::to_string(cp.scenario_index) +
                                   " is not owned by this shard");
        }
        CellState& st = **it;
        check_cell_progress(cp, spec.trials, "campaign: checkpoint");
        if (cp.prefix_blocks > 0) {
          st.prefix = cp.prefix;
          st.merged_blocks = cp.prefix_blocks;
        }
        st.pending.insert(cp.extra.begin(), cp.extra.end());
        result.resumed_blocks += cp.prefix_blocks + cp.extra.size();
        // Drain any contiguity the snapshot (or a hand-edited file) left.
        while (!st.pending.empty() && st.pending.begin()->first == st.merged_blocks) {
          st.prefix.merge(st.pending.begin()->second);
          ++st.merged_blocks;
          st.pending.erase(st.pending.begin());
        }
        if (st.merged_blocks == st.num_blocks) {
          if (cp.prefix_blocks == st.num_blocks) {
            st.prefix = cp.prefix;  // already finalized by the producing run
            st.finalized = true;
            targets.release(st.cell);
          } else {
            finalize_cell(spec, targets, st);
          }
          ++result.resumed_scenarios;
        }
      }
    }
  }

  // --- enqueue the remaining work, dealt contiguously across workers --------
  std::vector<WorkUnit> units;
  for (std::uint32_t slot = 0; slot < states.size(); ++slot) {
    const CellState& st = *states[slot];
    for (std::uint64_t b = st.merged_blocks; b < st.num_blocks; ++b) {
      if (st.pending.count(b) == 0) units.push_back({slot, b});
    }
  }

  unsigned workers =
      options.threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : options.threads;
  workers = static_cast<unsigned>(std::min<std::size_t>(workers, std::max<std::size_t>(units.size(), 1)));

  std::vector<StealDeque> deques(workers);
  {
    const std::size_t per = (units.size() + workers - 1) / std::max(1u, workers);
    for (unsigned w = 0; w < workers; ++w) {
      const std::size_t lo = std::min(units.size(), w * per);
      const std::size_t hi = std::min(units.size(), lo + per);
      deques[w].seed(std::vector<WorkUnit>(units.begin() + static_cast<std::ptrdiff_t>(lo),
                                           units.begin() + static_cast<std::ptrdiff_t>(hi)));
    }
  }

  // --- shared coordination state --------------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> blocks_completed{0};
  std::atomic<unsigned> workers_alive{workers};
  std::exception_ptr failure;
  std::mutex main_mu;  // guards `events` + `failure`; cv's companion
  std::condition_variable cv;
  std::vector<std::string> events;  // progress lines for finalized cells
  std::size_t cells_done = 0;       // owned cells finalized (main thread only)

  const std::size_t owned = states.size();
  std::size_t owned_done_at_start = 0;
  for (const auto& st : states) {
    if (st->finalized) ++owned_done_at_start;
  }

  auto run_unit = [&](const WorkUnit& u) {
    CellState& st = *states[u.slot];
    std::call_once(st.runner_once, [&] {
      if (!st.runner) st.runner.emplace(spec, st.cell, targets);
    });
    ScenarioResult partial = st.runner->run_block(u.block);

    bool completed_cell = false;
    {
      const std::lock_guard<std::mutex> lock(st.mu);
      if (u.block == st.merged_blocks) {
        st.prefix.merge(partial);
        ++st.merged_blocks;
        while (!st.pending.empty() && st.pending.begin()->first == st.merged_blocks) {
          st.prefix.merge(st.pending.begin()->second);
          ++st.merged_blocks;
          st.pending.erase(st.pending.begin());
        }
      } else {
        st.pending.emplace(u.block, std::move(partial));
      }
      if (st.merged_blocks == st.num_blocks && !st.finalized) {
        finalize_cell(spec, targets, st);
        completed_cell = true;
      }
    }

    const std::uint64_t done = blocks_completed.fetch_add(1) + 1;
    if (options.stop_after_blocks != 0 && done >= options.stop_after_blocks) stop.store(true);
    if (completed_cell) {
      const std::lock_guard<std::mutex> lock(main_mu);
      std::ostringstream line;
      const ScenarioResult& r = st.prefix;
      line << st.cell.label() << ": success " << r.reconfig_success << "/" << r.trials;
      events.push_back(line.str());
    }
    cv.notify_all();
  };

  auto worker_fn = [&](unsigned self) {
    try {
      for (;;) {
        if (stop.load(std::memory_order_relaxed)) break;
        WorkUnit u;
        if (!deques[self].pop_front(u)) {
          bool stole = false;
          for (unsigned d = 1; d < workers && !stole; ++d) {
            stole = deques[(self + d) % workers].steal_back(u);
          }
          if (!stole) break;  // nothing left to start anywhere
        }
        run_unit(u);
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(main_mu);
        if (!failure) failure = std::current_exception();
      }
      stop.store(true);
    }
    workers_alive.fetch_sub(1);
    cv.notify_all();
  };

  // --- snapshotting ----------------------------------------------------------
  auto snapshot_checkpoint = [&]() -> std::string {
    Checkpoint ckpt;
    ckpt.shard = options.shard;  // stamps are derived from the spec by the serializer
    for (const auto& stp : states) {
      CellState& st = *stp;
      const std::lock_guard<std::mutex> lock(st.mu);
      if (st.merged_blocks == 0 && st.pending.empty()) continue;
      CellProgress cp;
      cp.scenario_index = st.cell.index;
      cp.prefix_blocks = st.merged_blocks;
      if (st.merged_blocks > 0) cp.prefix = st.prefix;
      for (const auto& [block, partial] : st.pending) cp.extra.emplace_back(block, partial);
      ckpt.cells.push_back(std::move(cp));
    }
    return checkpoint_to_json(spec, ckpt);
  };

  const bool checkpointing = !options.checkpoint_path.empty();
  auto last_checkpoint = std::chrono::steady_clock::now();
  std::uint64_t checkpointed_blocks = 0;

  // Caller must NOT hold main_mu (the lines were already moved out of
  // `events`); shared by the wait loop and the post-join final drain.
  auto print_progress = [&](const std::vector<std::string>& lines) {
    if (options.progress == nullptr) return;
    for (const std::string& line : lines) {
      cells_done = std::min(owned, cells_done + 1);
      (*options.progress) << "[" << (owned_done_at_start + cells_done) << "/" << owned << "] "
                          << line << "\n";
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker_fn, w);

  // The main thread runs progress + periodic checkpoints while workers churn.
  {
    std::unique_lock<std::mutex> lk(main_mu);
    while (workers_alive.load() > 0) {
      cv.wait_for(lk, std::chrono::milliseconds(50));
      std::vector<std::string> drained;
      drained.swap(events);
      lk.unlock();
      print_progress(drained);
      if (checkpointing && !stop.load()) {
        const std::uint64_t done = blocks_completed.load();
        const auto now = std::chrono::steady_clock::now();
        const double elapsed = std::chrono::duration<double>(now - last_checkpoint).count();
        if (done > checkpointed_blocks && elapsed >= options.checkpoint_every_seconds) {
          // A failed write (disk full, path deleted) must not unwind past the
          // joinable pool — that would std::terminate. Record it like a
          // worker failure, drain the workers, and rethrow after the join.
          try {
            write_file_atomically(options.checkpoint_path, snapshot_checkpoint(), false);
            checkpointed_blocks = done;
            last_checkpoint = now;
          } catch (...) {
            {
              const std::lock_guard<std::mutex> lock(main_mu);
              if (!failure) failure = std::current_exception();
            }
            stop.store(true);
          }
        }
      }
      lk.lock();
    }
  }
  for (std::thread& t : pool) t.join();

  // Final progress drain (workers joined, no contention left).
  print_progress(events);
  events.clear();

  if (failure) std::rethrow_exception(failure);

  const std::uint64_t done = blocks_completed.load();
  if (checkpointing && (done > checkpointed_blocks || (options.stop_after_blocks != 0 && done > 0))) {
    write_file_atomically(options.checkpoint_path, snapshot_checkpoint(), false);
  }
  if (options.stop_after_blocks != 0 && stop.load()) {
    const bool all_done = std::all_of(states.begin(), states.end(),
                                      [](const auto& st) { return st->finalized; });
    if (!all_done) throw CampaignAborted(done);
  }

  for (auto& stp : states) {
    CellState& st = *stp;
    if (!st.finalized) {
      throw std::logic_error("campaign: cell " + std::to_string(st.cell.index) +
                             " did not complete");
    }
    result.scenarios[st.cell.index] = std::move(st.prefix);
  }
  return result;
}

// --- TargetTable ------------------------------------------------------------

struct TargetTable::Entry {
  TopologySpec topology;
  std::mutex mu;  // guards the two members below
  std::size_t unreleased = 0;  // counted cells not yet released
  std::shared_ptr<const TopologyTarget> target;
};

TargetTable::TargetTable(const ScenarioSpec& spec, std::span<const ScenarioCase> cells)
    : metrics_(spec.metrics) {
  for (const ScenarioCase& cell : cells) {
    std::unique_ptr<Entry>& e = entries_[cell.topology.label()];
    if (!e) {
      e = std::make_unique<Entry>();
      e->topology = cell.topology;
    }
    ++e->unreleased;
  }
}

TargetTable::~TargetTable() = default;

TargetTable::Entry& TargetTable::entry(const ScenarioCase& cell) const {
  const auto it = entries_.find(cell.topology.label());
  if (it == entries_.end()) {
    throw std::logic_error("TargetTable: cell " + std::to_string(cell.index) +
                           " was not counted");
  }
  return *it->second;
}

std::shared_ptr<const TopologyTarget> TargetTable::acquire(const ScenarioCase& cell) {
  Entry& e = entry(cell);
  // Built under the entry's lock: the topology's other cells wait for this
  // one build instead of racing their own; other topologies proceed.
  const std::lock_guard<std::mutex> lock(e.mu);
  if (!e.target) {
    e.target = std::make_shared<const TopologyTarget>(build_target(metrics_, e.topology));
  }
  return e.target;
}

void TargetTable::release(const ScenarioCase& cell) {
  Entry& e = entry(cell);
  const std::lock_guard<std::mutex> lock(e.mu);
  if (e.unreleased > 0 && --e.unreleased == 0) e.target.reset();
}

// --- CellRunner -------------------------------------------------------------

struct CellRunner::Impl {
  std::uint64_t trials;
  ScenarioContext ctx;
};

CellRunner::CellRunner(const ScenarioSpec& spec, const ScenarioCase& cell)
    : impl_(new Impl{spec.trials,
                     build_context(spec, cell,
                                   std::make_shared<const TopologyTarget>(
                                       build_target(spec.metrics, cell.topology)))}) {}

CellRunner::CellRunner(const ScenarioSpec& spec, const ScenarioCase& cell, TargetTable& targets)
    : impl_(new Impl{spec.trials, build_context(spec, cell, targets.acquire(cell))}) {}

CellRunner::~CellRunner() = default;
CellRunner::CellRunner(CellRunner&&) noexcept = default;
CellRunner& CellRunner::operator=(CellRunner&&) noexcept = default;

std::uint64_t CellRunner::num_blocks() const { return num_trial_blocks(impl_->trials); }

ScenarioResult CellRunner::run_block(std::uint64_t block) const {
  if (block >= num_blocks()) throw std::out_of_range("CellRunner::run_block: block out of range");
  // Reads the context only, so any number of threads can run different
  // blocks of the same cell concurrently.
  const ScenarioContext& ctx = impl_->ctx;
  ScenarioResult partial;
  partial.scenario_index = ctx.cell.index;
  BlockScratch scratch;
  const std::uint64_t lo = block * kTrialBlock;
  const std::uint64_t hi = std::min(impl_->trials, lo + kTrialBlock);
  for (std::uint64_t t = lo; t < hi; ++t) run_trial(ctx, t, partial, scratch);
  fold_histogram(partial, scratch);
  return partial;
}

void CellRunner::finalize(ScenarioResult& r) const {
  const ScenarioContext& ctx = impl_->ctx;
  const ScenarioCase& cell = ctx.cell;
  r.scenario_index = cell.index;
  r.label = cell.label();
  r.target_nodes = ctx.target().num_nodes();
  r.fabric_nodes = ctx.fabric.num_nodes();
  r.target_diameter = ctx.topo->diameter;
  if (ctx.topo->schedule) {
    r.collective_rounds = ctx.topo->schedule->rounds();
    r.collective_baseline_cycles = ctx.topo->healthy_collective.total_cycles;
  }
  const FaultModelSpec& model = cell.fault_model;
  if (model.kind == FaultModelKind::IidBernoulli || model.kind == FaultModelKind::BusIid) {
    // bus_iid: one bus per fabric node, each driver's clock an iid
    // geometric(p) — the node-model closed forms apply verbatim (Section V:
    // a bus fault is its driver's fault).
    r.analytic_survival = static_cast<double>(survival_probability(
        r.target_nodes, cell.spares, static_cast<long double>(model.p)));
    r.analytic_mttf = exact_iid_mttf(r.fabric_nodes, cell.spares, model.p);
  } else if (model.kind == FaultModelKind::Weibull) {
    // The model draws full lifetimes, so the empirical MTTF column is exactly
    // the (k+1)-st order statistic this closed form computes.
    r.analytic_mttf = weibull_mttf(r.fabric_nodes, cell.spares, model.shape, model.scale);
  }
}

}  // namespace ftdb::campaign
