#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
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
#include "serve/durable_file.hpp"
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
/// any thread count or split across workers.
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

struct TopologyFabric {
  Graph graph;                 // point-to-point FT graph / realized bus graph
  std::optional<BusGraph> bus;  // set for the bus family
  // check_tolerance_pairwise proved that the monotone embedding survives
  // every fault set of at most `spares` faults on this fabric, so a
  // within-budget draw needs no scan.
  bool proven = false;
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
    // Price the healthy machine once — the denominator of every trial's
    // slowdown.
    const auto n = static_cast<std::uint32_t>(t.graph.num_nodes());
    t.schedule = sim::build_schedule(sim::schedule_kind_from_name(metrics.collective_schedule), n);
    std::vector<NodeId> identity_ranks(n);
    for (NodeId v = 0; v < n; ++v) identity_ranks[v] = v;
    t.healthy_collective = sim::execute_schedule(sim::Machine::direct(t.graph), t.graph,
                                                 *t.schedule, identity_ranks);
  }
  return t;
}

TopologyFabric build_fabric(const Graph& target, const TopologySpec& topology, unsigned k) {
  TopologyFabric f;
  const unsigned h = topology.digits;
  switch (topology.family) {
    case TopologyFamily::DeBruijn:
      f.graph = ft_debruijn_graph({.base = topology.base, .digits = h, .spares = k});
      break;
    case TopologyFamily::ShuffleExchange:
      // Route 2 (natural labeling): self-contained, no VF2 search needed.
      f.graph = ft_shuffle_exchange_natural(h, k).ft_graph;
      break;
    case TopologyFamily::Bus:
      f.bus = bus_ft_debruijn_base2(h, k);
      // Fault models and graph metrics act on the point-to-point connectivity
      // the restricted driver<->member discipline realizes.
      f.graph = f.bus->realized_graph();
      break;
  }
  f.proven = check_tolerance_pairwise(target, f.graph, k).tolerant;
  return f;
}

/// Immutable per-scenario state shared (read-only) by all worker threads.
struct ScenarioContext {
  ScenarioCase cell;
  std::shared_ptr<const TopologyTarget> topo;   // shared by the topology's cells
  std::shared_ptr<const TopologyFabric> fab;    // shared by the (topology, spares)' cells
  std::unique_ptr<FaultModel> model;            // the cell's own
  std::uint64_t seed = 0;
  MetricSet metrics;

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
  const Graph& fabric() const { return fab->graph; }
  const std::optional<BusGraph>& bus() const { return fab->bus; }
};

ScenarioContext build_context(const ScenarioSpec& spec, const ScenarioCase& cell,
                              std::shared_ptr<const TopologyTarget> topo,
                              std::shared_ptr<const TopologyFabric> fab) {
  ScenarioContext ctx;
  ctx.cell = cell;
  ctx.topo = std::move(topo);
  ctx.fab = std::move(fab);
  ctx.seed = spec.seed;
  ctx.metrics = spec.metrics;
  const unsigned k = cell.spares;
  ctx.model = make_fault_model(cell.fault_model);
  ctx.model->prepare(ctx.fabric(), k);
  // Bus-family cells additionally expose the bus structure: clustered bus
  // correlation follows shared-membership, not just realized adjacency.
  if (ctx.bus()) ctx.model->prepare_bus(*ctx.bus(), k);
  ctx.bus_model = cell.fault_model.kind == FaultModelKind::BusIid ||
                  cell.fault_model.kind == FaultModelKind::BusClustered;
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

/// A worker's trial scratch: the simulator of the healthy target, built on
/// first use (a cell whose trials run no collective, traffic or stretch never
/// builds it). A CellRunner pools them, so a chunk borrows one instead of
/// building its own.
struct TrialScratch {
  sim::PacketSimulator& healthy(const ScenarioContext& ctx) {
    if (!healthy_sim) healthy_sim.emplace(sim::Machine::direct(ctx.target()), ctx.target());
    return *healthy_sim;
  }
  std::optional<sim::PacketSimulator> healthy_sim;
};

/// Stretch runs on successful trials of both point-to-point families (the
/// bus machine has no logical routing engine to audit).
bool wants_stretch(const ScenarioContext& ctx, bool success) {
  return ctx.metrics.stretch && success &&
         (ctx.cell.topology.family == TopologyFamily::DeBruijn ||
          ctx.cell.topology.family == TopologyFamily::ShuffleExchange);
}

/// Runs one trial and records what it measured in `out`.
void measure_trial(const ScenarioContext& ctx, std::uint64_t trial_idx, TrialScratch& scratch,
                   TrialOutcome& out) {
  out = TrialOutcome{};
  TrialRng rng = TrialRng::for_trial(ctx.seed, ctx.cell.index, trial_idx);
  const FaultDraw draw = ctx.model->draw(ctx.fabric(), ctx.cell.spares, rng);
  const std::uint64_t faults = draw.faults.count();

  bool success = false;
  if (faults <= ctx.cell.spares) {
    // On bus cells the fabric is the realized graph: an edge joins exactly
    // the pairs some bus lets communicate (driver <-> member), so the one
    // survival check serves every family. On a proven cell every fault set
    // within the budget survives, so only unproven fabrics scan.
    if (ctx.bus() && !draw.bus_faults.empty()) {
      // Section V discipline: bus faults resolve to driver-node faults on the
      // realized graph, and the merged set must still fit the spare budget.
      const std::optional<FaultSet> resolved = resolve_bus_faults(
          *ctx.bus(), ctx.cell.spares, draw.faults.nodes(), draw.bus_faults);
      success = resolved.has_value() &&
                (ctx.fab->proven ||
                 monotone_embedding_survives(ctx.target(), ctx.fabric(), *resolved));
    } else {
      success = ctx.fab->proven ||
                monotone_embedding_survives(ctx.target(), ctx.fabric(), draw.faults);
    }
  }
  out.faults = faults;
  out.bus_faults = draw.bus_faults.size();
  out.success = success;

  // A successful trial passed monotone_embedding_survives (checked, or
  // proven for the cell): every target node sits on a live host and every
  // target edge on a live link, so the reconfigured machine's live logical
  // graph is the target, and its diameter is the target's closed form (the
  // fold adds it). A degraded machine has whatever the survivors still form.
  if (!success && ctx.metrics.diameter) {
    const InducedSubgraph survivors =
        induced_subgraph_excluding(ctx.fabric(), draw.faults.nodes());
    out.degraded_diameter =
        survivors.graph.num_nodes() == 0 ? kUnreachable : diameter(survivors.graph);
  }
  if (wants_stretch(ctx, success)) {
    // Stretch runs only on a successful trial, whose live logical graph is
    // the target (see the simulator below): the audit borrows the router of
    // the scratch's healthy simulator, the one it would build.
    const sim::Machine machine =
        sim::Machine::reconfigured(ctx.fabric(), draw.faults, ctx.target().num_nodes());
    const sim::Router& logical = scratch.healthy(ctx).router();
    if (ctx.metrics.stretch_sample_pairs == 0) {
      out.stretch = sim::max_route_stretch(machine, logical);
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
      out.stretch = sim::max_route_stretch_sampled(machine, logical, pairs);
    }
  }

  // The simulator the collective and the traffic run on. A successful trial
  // passes monotone_embedding_survives (checked, or proven for the cell):
  // every target node sits on a live host and every target edge on a live
  // link, so the live logical graph is the target and the engine cannot tell
  // the reconfigured machine from the healthy target — the trial borrows the
  // scratch's healthy simulator. A failed trial's bare target with its
  // faults marked dead gets its own, unless every target node died — then
  // nothing runs.
  const bool want_collective = ctx.topo->schedule.has_value();
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
    // takes the cell's healthy run; a degraded bare target runs the plan
    // over its survivors (O(1) to build), priced against the *same
    // survivors' plan on the healthy target* so the slowdown isolates the
    // rerouting cost instead of crediting the smaller job.
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
    // else: every target node dead — the fold counts it unreachable.
    out.collective_completed = engine != nullptr && run.completed();
    if (out.collective_completed) {
      out.collective_slowdown =
          baseline_cycles == 0
              ? 1.0
              : static_cast<double>(run.total_cycles) / static_cast<double>(baseline_cycles);
      out.collective_hop_cycles = run.total_hop_cycles;
      out.collective_congestion = run.max_link_congestion;
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
      // Every target node dead otherwise: nothing can inject.
      const sim::SimStats stats = engine->run(packets, ctx.traffic_max_cycles);
      out.traffic_ran = true;
      out.traffic_delivered_packets = stats.delivered;
      out.traffic_delivered = stats.delivered_fraction();
      out.traffic_latency = stats.average_latency();
      out.traffic_queue_depth = stats.max_queue_depth;
      out.traffic_timed_out = stats.timed_out;
    }
  }

  out.spare_exhaustion_time = draw.spare_exhaustion_time;
}

/// Grows a dense per-fault-count counter to cover `faults`.
template <class T>
T& at_faults(std::vector<T>& dense, std::uint64_t faults) {
  if (dense.size() <= faults) dense.resize(faults + 1, T{});
  return dense[faults];
}

/// A block's partial: replays each outcome's adds in trial order. The
/// survival and slowdown curves count into dense arrays indexed by fault
/// count (an array index per trial), folded into the sparse curves at the
/// end.
ScenarioResult fold_outcomes(const ScenarioContext& ctx, std::span<const TrialOutcome> outcomes) {
  ScenarioResult acc;
  acc.scenario_index = ctx.cell.index;
  std::vector<std::uint64_t> hist;      // trials by drawn fault count
  std::vector<std::uint64_t> survived;  // successes by drawn fault count
  std::vector<std::uint64_t> coll_trials;  // collective runs by fault count
  std::vector<std::uint64_t> coll_unreachable;
  std::vector<double> coll_slowdown_sum;
  const bool want_collective = ctx.topo->schedule.has_value();
  for (const TrialOutcome& o : outcomes) {
    ++acc.trials;
    acc.fault_count.add(static_cast<double>(o.faults));
    if (ctx.bus_model) acc.bus_fault_count.add(static_cast<double>(o.bus_faults));
    if (o.faults > ctx.cell.spares) ++acc.over_budget;
    if (o.success) ++acc.reconfig_success;
    ++at_faults(hist, o.faults);
    at_faults(survived, o.faults) += o.success ? 1 : 0;

    if (ctx.metrics.diameter) {
      if (o.success) {
        acc.reconfigured_diameter.add(static_cast<double>(ctx.topo->diameter));
      } else if (o.degraded_diameter == kUnreachable) {
        ++acc.degraded_disconnected;
      } else {
        acc.degraded_diameter.add(static_cast<double>(o.degraded_diameter));
      }
    }
    if (wants_stretch(ctx, o.success)) acc.route_stretch.add(o.stretch);

    if (want_collective) {
      ++at_faults(coll_trials, o.faults);
      std::uint64_t& unreachable = at_faults(coll_unreachable, o.faults);
      double& slowdown_sum = at_faults(coll_slowdown_sum, o.faults);
      if (o.collective_completed) {
        acc.collective_slowdown.add(o.collective_slowdown);
        acc.collective_hop_cycles.add(static_cast<double>(o.collective_hop_cycles));
        acc.collective_congestion.add(static_cast<double>(o.collective_congestion));
        slowdown_sum += o.collective_slowdown;
      } else {
        ++acc.collective_unreachable;
        ++unreachable;
      }
    }

    if (ctx.traffic) {
      if (o.traffic_ran) {
        acc.traffic_delivered.add(o.traffic_delivered);
        if (o.traffic_delivered_packets > 0) acc.traffic_latency.add(o.traffic_latency);
        acc.traffic_congestion.add(static_cast<double>(o.traffic_queue_depth));
        acc.traffic_timed_out += o.traffic_timed_out;
      } else {
        acc.traffic_delivered.add(0.0);
      }
    }

    if (ctx.metrics.mttf) {
      if (std::isfinite(o.spare_exhaustion_time)) {
        acc.mttf.add(o.spare_exhaustion_time);
      } else {
        ++acc.mttf_censored;
      }
    }
  }
  for (std::size_t f = 0; f < hist.size(); ++f) {
    if (hist[f] != 0) acc.survival_curve.push_back({f, hist[f], survived[f]});
  }
  for (std::size_t f = 0; f < coll_trials.size(); ++f) {
    if (coll_trials[f] != 0) {
      acc.slowdown_curve.push_back(
          {f, coll_trials[f], coll_unreachable[f], coll_slowdown_sum[f]});
    }
  }
  return acc;
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

// --- the block executor ------------------------------------------------------

namespace {

/// A lock-free Chase–Lev work-stealing deque of unit indices, one per
/// worker (memory-order formulation after Lê/Pop/Cohen/Nardelli, PPoPP'13).
/// The owner pops from the bottom; thieves CAS the top. Two simplifications
/// keep it simple and TSan-clean without the usual circular-buffer hazard:
/// the buffer is bounded (every unit is seeded before any worker starts, so
/// there is no owner push racing a thief's buffer read — the array is
/// immutable once the pool spawns), and the seed is stored *reversed* so
/// the owner's pop-bottom yields the original front order (cell, then
/// block, then chunk, keeping the pending maps small and the scenario
/// contexts warm) while thieves take the original back. All units are
/// enqueued before the workers start, so once a deque reads empty it stays
/// empty: an empty sweep over every deque means no unstarted work remains.
///
/// Contiguous per-worker slices measured faster than one shared atomic
/// cursor. Per-cell builds dominate a survival campaign, and a cursor makes
/// workers block on one another's builds, while contiguous slices give each
/// worker its own cells. One 5 s perfbench `campaign_survival` run per
/// figure, seed 918273, 4-vCPU Xeon: deques 0.94-1.00 M trials/s; a cursor
/// in cell-major order 0.41 M, in waves of 4 cells 0.54-0.65 M, over 4
/// interleaved slices 0.77-0.80 M.
class StealDeque {
 public:
  /// Seeds units [lo, hi).
  void seed(std::size_t lo, std::size_t hi) {
    buf_.clear();
    for (std::size_t u = hi; u > lo; --u) buf_.push_back(u - 1);
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(static_cast<std::int64_t>(buf_.size()), std::memory_order_relaxed);
  }

  /// Owner-only: take the most recently seeded end (original front order).
  bool pop_front(std::size_t& out) {
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
  bool steal_back(std::size_t& out) {
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
  std::vector<std::size_t> buf_;  // immutable between seed() and the last pop
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
};

unsigned worker_count(unsigned threads) {
  return threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : threads;
}

/// The scheduler: runs `run(u)` for every unit index u in [0, count).
void schedule_units(std::size_t count, unsigned threads,
                    const std::function<bool(std::size_t)>& run,
                    const std::function<bool()>& tick) {
  const auto workers = static_cast<unsigned>(
      std::min<std::size_t>(worker_count(threads), std::max<std::size_t>(count, 1)));

  std::vector<StealDeque> deques(workers);
  const std::size_t per = (count + workers - 1) / workers;
  for (unsigned w = 0; w < workers; ++w) {
    const std::size_t lo = std::min(count, w * per);
    deques[w].seed(lo, std::min(count, lo + per));
  }

  std::atomic<bool> stop{false};
  std::mutex mu;  // guards `alive` and `failure`; cv's companion
  std::condition_variable cv;
  unsigned alive = workers;
  std::exception_ptr failure;
  const auto fail = [&] {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!failure) failure = std::current_exception();
    }
    stop.store(true);
  };

  auto worker_fn = [&](unsigned self) {
    try {
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t u = 0;
        if (!deques[self].pop_front(u)) {
          bool stole = false;
          for (unsigned d = 1; d < workers && !stole; ++d) {
            stole = deques[(self + d) % workers].steal_back(u);
          }
          if (!stole) break;  // nothing left to start anywhere
        }
        if (!run(u)) stop.store(true);
        cv.notify_all();
      }
    } catch (...) {
      fail();
    }
    {
      const std::lock_guard<std::mutex> lock(mu);
      --alive;  // under the lock, so the tick loop cannot miss the last exit
    }
    cv.notify_all();
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker_fn, w);
  {
    std::unique_lock<std::mutex> lk(mu);
    while (alive > 0) {
      cv.wait_for(lk, std::chrono::milliseconds(50));
      lk.unlock();
      // A throwing tick must not unwind past the joinable pool (that would
      // std::terminate): it fails the run like a throwing unit.
      try {
        if (!tick()) stop.store(true);
      } catch (...) {
        fail();
      }
      lk.lock();
    }
  }
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace

void run_work_units(const std::vector<WorkUnit>& units, unsigned threads,
                    const std::function<bool(const WorkUnit&)>& run,
                    const std::function<bool()>& tick) {
  schedule_units(units.size(), threads, [&](std::size_t u) { return run(units[u]); }, tick);
}

std::uint64_t chunk_trials(std::uint64_t blocks, std::uint64_t trials, unsigned workers) {
  if (workers <= 1 || blocks >= kBlocksPerWorker * workers) return kTrialBlock;
  const std::uint64_t per_unit = trials / (kBlocksPerWorker * workers);
  return std::clamp<std::uint64_t>(std::bit_floor(per_unit), 1, kTrialBlock);
}

void run_work_units(const std::vector<WorkUnit>& blocks, std::uint64_t trials, unsigned threads,
                    const std::function<const CellRunner&(std::uint32_t slot)>& runner,
                    const std::function<bool(const WorkUnit&, ScenarioResult&&)>& done,
                    const std::function<bool()>& tick) {
  std::uint64_t total = 0;
  for (const WorkUnit& b : blocks) total += trials_in_block(trials, b.block);
  const std::uint64_t chunk = chunk_trials(blocks.size(), total, worker_count(threads));

  // One outcome record per trial of each block, allocated by the block's
  // first chunk to start; the block's last chunk to finish (the one that
  // counts `left` down to zero) folds and frees it. A whole-block chunk does
  // exactly what CellRunner::run_block does.
  struct Pending {
    std::once_flag alloc;
    std::vector<TrialOutcome> outcomes;
    std::atomic<std::uint64_t> left{0};  // chunks not yet measured
  };
  struct Chunk {
    std::size_t block;    // index into `blocks`
    std::uint64_t first;  // offset of the chunk's first trial in the block
  };
  std::vector<Pending> pending(blocks.size());
  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::uint64_t n = trials_in_block(trials, blocks[i].block);
    for (std::uint64_t first = 0; first < n; first += chunk) chunks.push_back({i, first});
    pending[i].left.store((n + chunk - 1) / chunk, std::memory_order_relaxed);
  }

  schedule_units(
      chunks.size(), threads,
      [&](std::size_t u) {
        const Chunk& c = chunks[u];
        const WorkUnit& b = blocks[c.block];
        Pending& p = pending[c.block];
        const std::uint64_t n = trials_in_block(trials, b.block);
        std::call_once(p.alloc, [&] { p.outcomes.resize(n); });
        const CellRunner& cell = runner(b.slot);
        cell.measure(b.block * kTrialBlock + c.first,
                     std::span(p.outcomes).subspan(c.first, std::min(chunk, n - c.first)));
        if (p.left.fetch_sub(1, std::memory_order_acq_rel) != 1) return true;
        ScenarioResult partial = cell.fold(p.outcomes);
        std::vector<TrialOutcome>().swap(p.outcomes);
        return done(b, std::move(partial));
      },
      tick);
}

void fold_in_order(ScenarioResult& prefix, std::uint64_t& prefix_blocks,
                   std::map<std::uint64_t, ScenarioResult>& pending) {
  while (!pending.empty() && pending.begin()->first == prefix_blocks) {
    prefix.merge(pending.begin()->second);
    ++prefix_blocks;
    pending.erase(pending.begin());
  }
}

std::vector<ScenarioCase> runnable_grid(const ScenarioSpec& spec) {
  if (spec.trials == 0) throw std::runtime_error("campaign: trials must be positive");
  std::vector<ScenarioCase> cells = expand_grid(spec);
  if (cells.empty()) throw std::runtime_error("campaign: empty scenario grid");
  return cells;
}

// --- the campaign -------------------------------------------------------------

namespace {

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
  const std::vector<ScenarioCase> cells = runnable_grid(spec);

  CampaignResult result;
  result.spec = spec;
  result.scenarios.resize(cells.size());

  // One reduction state per cell, in grid order.
  std::vector<std::unique_ptr<CellState>> states;
  for (const ScenarioCase& cell : cells) {
    auto st = std::make_unique<CellState>();
    st->cell = cell;
    st->num_blocks = num_trial_blocks(spec.trials);
    st->prefix.scenario_index = cell.index;
    states.push_back(std::move(st));
  }
  TargetTable targets(spec, cells);

  // --- resume: seed the reduction states from the checkpoint ----------------
  if (options.resume && !options.checkpoint_path.empty()) {
    std::error_code ec;
    if (std::filesystem::exists(options.checkpoint_path, ec)) {
      const Checkpoint ckpt = parse_checkpoint(serve::read_file(options.checkpoint_path));
      if (ckpt.fingerprint != spec_fingerprint(spec)) {
        throw std::runtime_error(
            "campaign: checkpoint was produced by a different spec (fingerprint mismatch)");
      }
      if (ckpt.shard_stamp != shard_fingerprint(spec, ShardSpec{})) {
        throw std::runtime_error("campaign: checkpoint belongs to shard " + ckpt.shard.label() +
                                 "; only a whole-campaign checkpoint resumes (run shards as "
                                 "elastic workers: --elastic DIR --shard I/N)");
      }
      for (const CellProgress& cp : ckpt.cells) {
        if (cp.scenario_index >= states.size()) {
          throw std::runtime_error("campaign: checkpoint scenario index " +
                                   std::to_string(cp.scenario_index) + " is outside the grid");
        }
        CellState& st = *states[cp.scenario_index];
        check_cell_progress(cp, spec.trials, "campaign: checkpoint");
        if (cp.prefix_blocks > 0) {
          st.prefix = cp.prefix;
          st.merged_blocks = cp.prefix_blocks;
        }
        st.pending.insert(cp.extra.begin(), cp.extra.end());
        result.resumed_blocks += cp.prefix_blocks + cp.extra.size();
        // Drain any contiguity the snapshot (or a hand-edited file) left.
        fold_in_order(st.prefix, st.merged_blocks, st.pending);
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

  // --- the remaining work, in grid order --------------------------------------
  std::vector<WorkUnit> units;
  for (std::uint32_t slot = 0; slot < states.size(); ++slot) {
    const CellState& st = *states[slot];
    for (std::uint64_t b = st.merged_blocks; b < st.num_blocks; ++b) {
      if (st.pending.count(b) == 0) units.push_back({slot, b});
    }
  }

  std::atomic<std::uint64_t> blocks_completed{0};
  std::mutex events_mu;             // guards `events`
  std::vector<std::string> events;  // progress lines for finalized cells
  std::size_t cells_done = 0;       // cells finalized, resumed ones included (tick only)
  for (const auto& st : states) cells_done += st->finalized ? 1 : 0;

  const auto runner = [&](std::uint32_t slot) -> const CellRunner& {
    CellState& st = *states[slot];
    std::call_once(st.runner_once, [&] {
      if (!st.runner) st.runner.emplace(spec, st.cell, targets);
    });
    return *st.runner;
  };
  const auto merge_block = [&](const WorkUnit& u, ScenarioResult&& partial) {
    CellState& st = *states[u.slot];
    bool completed_cell = false;
    {
      const std::lock_guard<std::mutex> lock(st.mu);
      st.pending.emplace(u.block, std::move(partial));
      fold_in_order(st.prefix, st.merged_blocks, st.pending);
      if (st.merged_blocks == st.num_blocks && !st.finalized) {
        finalize_cell(spec, targets, st);
        completed_cell = true;
      }
    }
    if (completed_cell) {
      std::ostringstream line;
      line << st.cell.label() << ": success " << st.prefix.reconfig_success << "/"
           << st.prefix.trials;
      const std::lock_guard<std::mutex> lock(events_mu);
      events.push_back(line.str());
    }
    const std::uint64_t done = blocks_completed.fetch_add(1) + 1;
    return options.stop_after_blocks == 0 || done < options.stop_after_blocks;
  };

  const auto snapshot_checkpoint = [&]() -> std::string {
    Checkpoint ckpt;  // whole-campaign shard; stamps derived by the serializer
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

  const auto print_progress = [&](const std::vector<std::string>& lines) {
    if (options.progress == nullptr) return;
    for (const std::string& line : lines) {
      cells_done = std::min(states.size(), cells_done + 1);
      (*options.progress) << "[" << cells_done << "/" << states.size() << "] " << line << "\n";
    }
  };

  // The calling thread prints progress and writes the periodic checkpoints
  // while the workers run. A failed write fails the run after the join.
  const auto tick = [&] {
    std::vector<std::string> drained;
    {
      const std::lock_guard<std::mutex> lock(events_mu);
      drained.swap(events);
    }
    print_progress(drained);
    const std::uint64_t done = blocks_completed.load();
    const auto now = std::chrono::steady_clock::now();
    if (checkpointing && done > checkpointed_blocks &&
        std::chrono::duration<double>(now - last_checkpoint).count() >=
            options.checkpoint_every_seconds) {
      serve::write_file_atomically(options.checkpoint_path, snapshot_checkpoint(), false);
      checkpointed_blocks = done;
      last_checkpoint = now;
    }
    return true;
  };

  run_work_units(units, spec.trials, options.threads, runner, merge_block, tick);
  print_progress(events);  // the workers have joined: no contention left

  const std::uint64_t done = blocks_completed.load();
  if (checkpointing && done > checkpointed_blocks) {
    serve::write_file_atomically(options.checkpoint_path, snapshot_checkpoint(), false);
  }
  if (options.stop_after_blocks != 0 && done >= options.stop_after_blocks &&
      !std::all_of(states.begin(), states.end(), [](const auto& st) { return st->finalized; })) {
    throw CampaignAborted(done);
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

namespace {

/// One shared value of a TargetTable: built on first use under its own lock,
/// dropped once every counted cell of its key has been released.
template <class T>
struct SharedSlot {
  std::mutex mu;  // guards the two members below
  std::size_t unreleased = 0;  // counted cells not yet released
  std::shared_ptr<const T> value;

  template <class Build>
  std::shared_ptr<const T> acquire(Build build) {
    // Built under the slot's lock: the key's other cells wait for this one
    // build instead of racing their own; other keys proceed.
    const std::lock_guard<std::mutex> lock(mu);
    if (!value) value = std::make_shared<const T>(build());
    return value;
  }

  /// `counted`: the first release of its cell. Only that one counts down,
  /// but any release drops a value acquired again after the count reached 0.
  void release(bool counted) {
    const std::lock_guard<std::mutex> lock(mu);
    if (counted && unreleased > 0) --unreleased;
    if (unreleased == 0) value.reset();
  }
};

}  // namespace

struct TargetTable::Entry {
  TopologySpec topology;
  SharedSlot<TopologyTarget> target;
  // By spare budget; filled by the constructor only, so lookups need no lock.
  std::map<unsigned, SharedSlot<TopologyFabric>> fabrics;
};

TargetTable::TargetTable(const ScenarioSpec& spec, std::span<const ScenarioCase> cells)
    : metrics_(spec.metrics) {
  for (const ScenarioCase& cell : cells) {
    std::unique_ptr<Entry>& e = entries_[cell.topology.label()];
    if (!e) {
      e = std::make_unique<Entry>();
      e->topology = cell.topology;
    }
    ++e->target.unreleased;
    ++e->fabrics[cell.spares].unreleased;
  }
}

TargetTable::~TargetTable() = default;

TargetTable::Entry& TargetTable::entry(const ScenarioCase& cell) const {
  const auto it = entries_.find(cell.topology.label());
  if (it == entries_.end() || it->second->fabrics.count(cell.spares) == 0) {
    throw std::logic_error("TargetTable: cell " + std::to_string(cell.index) +
                           " was not counted");
  }
  return *it->second;
}

std::shared_ptr<const TopologyTarget> TargetTable::acquire(const ScenarioCase& cell) {
  Entry& e = entry(cell);
  return e.target.acquire([&] { return build_target(metrics_, e.topology); });
}

std::shared_ptr<const TopologyFabric> TargetTable::acquire_fabric(const ScenarioCase& cell) {
  Entry& e = entry(cell);
  // The proof needs the target: the fabric's lock is taken before the
  // target's, never the other way round.
  return e.fabrics.at(cell.spares).acquire(
      [&] { return build_fabric(acquire(cell)->graph, e.topology, cell.spares); });
}

void TargetTable::release(const ScenarioCase& cell) {
  Entry& e = entry(cell);
  bool first = false;
  {
    const std::lock_guard<std::mutex> lock(released_mu_);
    first = released_.insert(cell.index).second;
  }
  e.target.release(first);
  e.fabrics.at(cell.spares).release(first);
}

// --- CellRunner -------------------------------------------------------------

struct CellRunner::Impl {
  Impl(std::uint64_t cell_trials, ScenarioContext context)
      : trials(cell_trials), ctx(std::move(context)) {}

  std::uint64_t trials;
  ScenarioContext ctx;
  std::mutex scratch_mu;  // guards `scratch`
  std::vector<std::unique_ptr<TrialScratch>> scratch;  // idle scratch, lent to measure()
};

CellRunner::CellRunner(const ScenarioSpec& spec, const ScenarioCase& cell) {
  auto topo = std::make_shared<const TopologyTarget>(build_target(spec.metrics, cell.topology));
  auto fab = std::make_shared<const TopologyFabric>(
      build_fabric(topo->graph, cell.topology, cell.spares));
  impl_ = std::make_unique<Impl>(spec.trials,
                                 build_context(spec, cell, std::move(topo), std::move(fab)));
}

CellRunner::CellRunner(const ScenarioSpec& spec, const ScenarioCase& cell, TargetTable& targets)
    : impl_(std::make_unique<Impl>(
          spec.trials,
          build_context(spec, cell, targets.acquire(cell), targets.acquire_fabric(cell)))) {}

CellRunner::~CellRunner() = default;
CellRunner::CellRunner(CellRunner&&) noexcept = default;
CellRunner& CellRunner::operator=(CellRunner&&) noexcept = default;

std::uint64_t CellRunner::num_blocks() const { return num_trial_blocks(impl_->trials); }

ScenarioResult CellRunner::run_block(std::uint64_t block) const {
  if (block >= num_blocks()) throw std::out_of_range("CellRunner::run_block: block out of range");
  std::vector<TrialOutcome> outcomes(trials_in_block(impl_->trials, block));
  measure(block * kTrialBlock, outcomes);
  return fold(outcomes);
}

void CellRunner::measure(std::uint64_t first, std::span<TrialOutcome> out) const {
  if (first > impl_->trials || out.size() > impl_->trials - first) {
    throw std::out_of_range("CellRunner::measure: trials out of range");
  }
  // Reads the context only, so any number of threads can measure trials of
  // the same cell concurrently, each on scratch of its own.
  std::unique_ptr<TrialScratch> scratch;
  {
    const std::lock_guard<std::mutex> lock(impl_->scratch_mu);
    if (!impl_->scratch.empty()) {
      scratch = std::move(impl_->scratch.back());
      impl_->scratch.pop_back();
    }
  }
  if (!scratch) scratch = std::make_unique<TrialScratch>();
  for (std::size_t i = 0; i < out.size(); ++i) measure_trial(impl_->ctx, first + i, *scratch, out[i]);
  const std::lock_guard<std::mutex> lock(impl_->scratch_mu);
  impl_->scratch.push_back(std::move(scratch));
}

ScenarioResult CellRunner::fold(std::span<const TrialOutcome> outcomes) const {
  return fold_outcomes(impl_->ctx, outcomes);
}

void CellRunner::finalize(ScenarioResult& r) const {
  const ScenarioContext& ctx = impl_->ctx;
  const ScenarioCase& cell = ctx.cell;
  r.scenario_index = cell.index;
  r.label = cell.label();
  r.target_nodes = ctx.target().num_nodes();
  r.fabric_nodes = ctx.fabric().num_nodes();
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
