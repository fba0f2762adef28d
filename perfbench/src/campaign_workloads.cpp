// campaign_survival and campaign_sim: Monte Carlo fault campaigns driven
// through run_campaign exactly as `ftdb_campaign run --checkpoint FILE` runs
// them (a checkpoint after every completed block).
//
// The traced run replays block 0 of every cell trial by trial, making the
// same public calls runner.cpp's run_trial makes, each inside a layer span,
// and checks the replay's counts against CellRunner::run_block(0).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/fault_models.hpp"
#include "campaign/report.hpp"
#include "campaign/rng.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "common.hpp"
#include "ft/bus_ft.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/tolerance.hpp"
#include "graph/algorithms.hpp"
#include "graph/subgraph.hpp"
#include "sim/engine.hpp"
#include "sim/reconfigured_routing.hpp"
#include "sim/schedule.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftdb;
using namespace ftdb::campaign;


FaultModelSpec fault_model(FaultModelKind kind, double p) {
  FaultModelSpec m;
  m.kind = kind;
  m.p = p;
  return m;
}

/// 24 cells of survival-only trials at N ~ 4096 (mttf metric only).
ScenarioSpec survival_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "perfbench_survival";
  spec.seed = seed;
  spec.trials = 1024;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 12},
                     {TopologyFamily::ShuffleExchange, 2, 12},
                     {TopologyFamily::Bus, 2, 10}};
  spec.spares = {4, 8};
  FaultModelSpec weibull = fault_model(FaultModelKind::Weibull, 0.01);
  weibull.shape = 2.0;
  weibull.scale = 100.0;
  weibull.horizon = 3.5;  // ~0.12% of nodes dead by the horizon
  spec.fault_models = {fault_model(FaultModelKind::IidBernoulli, 0.001),
                       fault_model(FaultModelKind::Clustered, 0.0003), weibull,
                       fault_model(FaultModelKind::BusIid, 0.001)};
  spec.metrics.diameter = false;
  spec.metrics.stretch = false;
  spec.metrics.mttf = true;
  spec.metrics.collective = false;
  spec.metrics.traffic = false;
  return spec;
}

/// 12 small cells where every trial runs the simulator: diameter, sampled
/// stretch, zipf traffic and a Bruck all-to-all.
ScenarioSpec sim_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "perfbench_sim";
  spec.seed = seed;
  spec.trials = 64;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 6},
                     {TopologyFamily::ShuffleExchange, 2, 6},
                     {TopologyFamily::DeBruijn, 3, 4}};
  spec.spares = {2, 4};
  spec.fault_models = {fault_model(FaultModelKind::IidBernoulli, 0.02),
                       fault_model(FaultModelKind::Clustered, 0.01)};
  spec.metrics.diameter = true;
  spec.metrics.stretch = true;
  spec.metrics.stretch_sample_pairs = 64;
  spec.metrics.mttf = false;
  spec.metrics.collective = true;
  spec.metrics.collective_schedule = "all_to_all_bruck";
  spec.metrics.traffic = true;
  spec.metrics.traffic_spec.pattern = "zipf";
  spec.metrics.traffic_spec.theta = 1.0;
  spec.metrics.traffic_spec.packets_per_node = 4;
  return spec;
}

void write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + tmp);
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  if (std::fclose(f) != 0 || !ok) throw std::runtime_error("short write to " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) throw std::runtime_error("rename " + tmp);
}

/// Σ faults over the trials a cell ran, exact from its survival curve.
std::uint64_t fault_sum(const ScenarioResult& r) {
  std::uint64_t sum = 0;
  for (const SurvivalPoint& p : r.survival_curve) sum += p.faults * p.trials;
  return sum;
}

// --- untraced: end-to-end campaign runs --------------------------------------

void measure(const ScenarioSpec& spec, const Options& options, Result& result) {
  const std::vector<ScenarioCase> cells = expand_grid(spec);

  CampaignOptions run_options;
  run_options.threads = options.threads;
  run_options.checkpoint_path = options.out_dir + "/" + options.workload + ".ckpt";
  run_options.checkpoint_every_seconds = 0.0;

  // Each round times one set-up — what a campaign builds before its first
  // trial: every cell's graphs, prepared fault model and collective baseline
  // — then one whole campaign. Interleaving the set-ups with the runs makes
  // both medians sample the same stretch of machine time.
  std::vector<double> setup;
  std::vector<double> walls;
  std::vector<double> rates;
  std::string first_report;
  const Clock::time_point start = Clock::now();
  do {
    {
      const Clock::time_point t0 = Clock::now();
      std::vector<CellRunner> runners;
      runners.reserve(cells.size());
      for (const ScenarioCase& cell : cells) runners.emplace_back(spec, cell);
      setup.push_back(seconds_between(t0, Clock::now()));
    }
    std::remove(run_options.checkpoint_path.c_str());
    const Clock::time_point t0 = Clock::now();
    const CampaignResult run = run_campaign(spec, run_options);
    const std::string report = campaign_report_json(run);
    const double wall = seconds_between(t0, Clock::now());
    walls.push_back(wall * 1e6);

    std::uint64_t trials = 0;
    result.attempted += cells.size();
    std::size_t bad = 0;
    try {
      if (validate_campaign_report(report) != cells.size()) {
        result.fail("report cell count differs from the grid");
        bad = cells.size();
      }
    } catch (const std::exception& e) {
      result.fail(std::string("report invalid: ") + e.what());
      bad = cells.size();
    }
    for (std::size_t c = 0; c < cells.size() && bad == 0; ++c) {
      const ScenarioResult& r = c < run.scenarios.size() ? run.scenarios[c] : ScenarioResult{};
      if (r.trials != spec.trials || r.label.empty()) {
        ++bad;
        result.fail("cell " + std::to_string(c) + " missing or incomplete");
      }
      trials += r.trials;
    }
    if (first_report.empty()) {
      first_report = report;
    } else if (report != first_report) {
      result.fail("report bytes differ between runs of the same seed");
      ++bad;
    }
    result.failed += bad;
    rates.push_back(static_cast<double>(trials) / wall);
  } while (seconds_between(start, Clock::now()) < options.seconds);

  result.set_end_to_end("setup_s", median(setup), "s");
  result.set_end_to_end("throughput_per_s", median(rates), "1/s");
  result.set_end_to_end("latency_us", median(walls), "us");
  result.add_detail("campaign.trials_per_s", median(rates), "1/s");
  result.add_detail("campaign.runs", static_cast<double>(walls.size()), "count");
  result.add_detail("campaign.cells", static_cast<double>(cells.size()), "count");
  result.add_detail("campaign.trials_per_run", static_cast<double>(spec.trials * cells.size()),
                    "count");
}

// --- traced: block-0 replay ----------------------------------------------------

/// The per-cell state run_trial reads, rebuilt through the same public calls
/// runner.cpp's build_context makes.
struct ReplayCell {
  ScenarioCase cell;
  Graph target;
  Graph fabric;
  std::optional<BusGraph> bus;
  std::unique_ptr<FaultModel> model;
  std::optional<sim::Schedule> schedule;
  std::vector<NodeId> identity_ranks;
  std::optional<sim::Machine> healthy_machine;
  std::uint64_t traffic_packets = 0;
  std::uint64_t traffic_max_cycles = 0;
};

ReplayCell build_replay_cell(const ScenarioSpec& spec, const ScenarioCase& cell) {
  ReplayCell c;
  c.cell = cell;
  const unsigned h = cell.topology.digits;
  const unsigned k = cell.spares;
  switch (cell.topology.family) {
    case TopologyFamily::DeBruijn:
      c.target = debruijn_graph({.base = cell.topology.base, .digits = h});
      c.fabric = ft_debruijn_graph({.base = cell.topology.base, .digits = h, .spares = k});
      break;
    case TopologyFamily::ShuffleExchange:
      c.target = shuffle_exchange_graph(h);
      c.fabric = ft_shuffle_exchange_natural(h, k).ft_graph;
      break;
    case TopologyFamily::Bus:
      c.bus = bus_ft_debruijn_base2(h, k);
      c.target = debruijn_base2(h);
      c.fabric = c.bus->realized_graph();
      break;
  }
  c.model = make_fault_model(cell.fault_model);
  c.model->prepare(c.fabric, k);
  if (c.bus) c.model->prepare_bus(*c.bus, k);
  const bool p2p = cell.topology.family != TopologyFamily::Bus;
  if (spec.metrics.collective && p2p) {
    c.schedule = sim::build_schedule(sim::schedule_kind_from_name(spec.metrics.collective_schedule),
                                     static_cast<std::uint32_t>(c.target.num_nodes()));
    c.identity_ranks.resize(c.target.num_nodes());
    for (NodeId v = 0; v < c.target.num_nodes(); ++v) c.identity_ranks[v] = v;
    c.healthy_machine.emplace(sim::Machine::direct(c.target));
  }
  if (spec.metrics.traffic && p2p) {
    c.traffic_packets = spec.metrics.traffic_spec.packets_per_node * c.target.num_nodes();
    c.traffic_max_cycles = 4 * c.traffic_packets + 1024;
  }
  return c;
}

struct Tally {
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
  std::uint64_t faults = 0;
  std::uint64_t engine_runs = 0;
  std::uint64_t engine_cycles = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t routers[3] = {0, 0, 0};  // indexed by sim::RouterBackend

  void add(const Tally& o) {
    trials += o.trials;
    successes += o.successes;
    faults += o.faults;
    engine_runs += o.engine_runs;
    engine_cycles += o.engine_cycles;
    max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
    for (int b = 0; b < 3; ++b) routers[b] += o.routers[b];
  }
};

using Scope = Trace::Scope;

/// One trial, call for call as runner.cpp's run_trial makes it.
void replay_trial(const ScenarioSpec& spec, const ReplayCell& c, std::uint64_t trial,
                  Trace::Lane& lane, Tally& tally) {
  const MetricSet& metrics = spec.metrics;
  TrialRng rng = TrialRng::for_trial(spec.seed, c.cell.index, trial);
  FaultDraw draw;
  {
    Scope s(lane, "fault_models.draw");
    draw = c.model->draw(c.fabric, c.cell.spares, rng);
  }
  const std::uint64_t faults = draw.faults.count();
  bool success = false;
  if (faults <= c.cell.spares) {
    Scope s(lane, "ft.survives");
    if (c.bus && !draw.bus_faults.empty()) {
      const std::optional<FaultSet> resolved =
          resolve_bus_faults(*c.bus, c.cell.spares, draw.faults.nodes(), draw.bus_faults);
      success = resolved.has_value() &&
                bus_monotone_embedding_survives(c.target, *c.bus, *resolved);
    } else if (c.bus) {
      success = bus_monotone_embedding_survives(c.target, *c.bus, draw.faults);
    } else {
      success = monotone_embedding_survives(c.target, c.fabric, draw.faults);
    }
  }
  ++tally.trials;
  tally.faults += faults;
  if (success) ++tally.successes;

  const TopologyFamily family = c.cell.topology.family;
  const bool se_family = family == TopologyFamily::ShuffleExchange;
  const bool want_stretch = metrics.stretch && success && family != TopologyFamily::Bus;
  const bool want_collective = c.schedule.has_value();
  const bool traffic = c.traffic_packets != 0;
  const std::uint64_t n = c.target.num_nodes();

  std::optional<sim::Machine> reconfigured;
  if (success && (metrics.diameter || want_stretch || want_collective || traffic)) {
    Scope s(lane, "sim.reconfigure");
    reconfigured.emplace(sim::Machine::reconfigured(c.fabric, draw.faults, n));
  }
  if (success && (metrics.diameter || want_stretch)) {
    if (metrics.diameter) {
      Graph live;
      {
        Scope s(lane, "sim.live_graph");
        live = reconfigured->live_logical_graph(c.target);
      }
      Scope s(lane, "graph.diameter");
      (void)diameter(live);
    }
    if (want_stretch) {
      std::vector<std::pair<NodeId, NodeId>> pairs;
      if (metrics.stretch_sample_pairs != 0) {
        for (std::uint64_t i = 0; i < metrics.stretch_sample_pairs; ++i) {
          const NodeId src = static_cast<NodeId>(rng.next_u64() % n);
          const NodeId dst = static_cast<NodeId>(rng.next_u64() % n);
          if (src != dst) pairs.emplace_back(src, dst);
        }
      }
      Scope s(lane, "sim.stretch");
      const unsigned h = c.cell.topology.digits;
      if (metrics.stretch_sample_pairs == 0) {
        (void)(se_family ? sim::max_route_stretch_se(*reconfigured, h)
                         : sim::max_route_stretch(*reconfigured, c.cell.topology.base, h));
      } else {
        (void)(se_family
                   ? sim::max_route_stretch_se_sampled(*reconfigured, h, pairs)
                   : sim::max_route_stretch_sampled(*reconfigured, c.cell.topology.base, h,
                                                    pairs));
      }
    }
  } else if (!success && metrics.diameter) {
    InducedSubgraph survivors;
    {
      Scope s(lane, "graph.induced_subgraph");
      survivors = induced_subgraph_excluding(c.fabric, draw.faults.nodes());
    }
    if (survivors.graph.num_nodes() != 0) {
      Scope s(lane, "graph.diameter");
      (void)diameter(survivors.graph);
    }
  }

  auto target_hits = [&] {
    std::vector<NodeId> hit;
    for (const NodeId f : draw.faults.nodes()) {
      if (f < n) hit.push_back(f);
    }
    return hit;
  };

  if (want_collective) {
    if (success) {
      Scope s(lane, "sim.collective");
      (void)sim::execute_schedule(*reconfigured, c.target, *c.schedule, c.identity_ranks);
    } else {
      std::vector<NodeId> survivors;
      for (NodeId v = 0; v < n; ++v) {
        if (!draw.faults.is_faulty(v)) survivors.push_back(v);
      }
      if (!survivors.empty()) {
        std::optional<sim::Machine> degraded;
        {
          Scope s(lane, "sim.degraded_machine");
          degraded.emplace(sim::Machine::direct_with_faults(c.target, FaultSet(n, target_hits())));
        }
        std::optional<sim::Schedule> sched;
        {
          Scope s(lane, "sim.schedule_build");
          sched.emplace(sim::build_schedule(c.schedule->kind,
                                            static_cast<std::uint32_t>(survivors.size())));
        }
        Scope s(lane, "sim.collective");
        (void)sim::execute_schedule(*degraded, c.target, *sched, survivors);
        (void)sim::execute_schedule(*c.healthy_machine, c.target, *sched, survivors);
      }
    }
  }

  if (traffic) {
    const std::uint64_t traffic_seed = rng.next_u64();
    const TrafficSpec& ts = metrics.traffic_spec;
    std::vector<sim::Packet> packets;
    {
      Scope s(lane, "sim.traffic_gen");
      packets = sim::zipf_traffic(n, c.traffic_packets, ts.theta, traffic_seed);
    }
    std::optional<sim::Machine> degraded;
    if (!success) {
      std::vector<NodeId> hit = target_hits();
      if (hit.size() < n) {
        Scope s(lane, "sim.degraded_machine");
        degraded.emplace(sim::Machine::direct_with_faults(c.target, FaultSet(n, std::move(hit))));
      }
    }
    const sim::Machine* machine = success ? &*reconfigured : (degraded ? &*degraded : nullptr);
    if (machine != nullptr) {
      std::optional<sim::PacketSimulator> engine;
      {
        Scope s(lane, "sim.router_build");
        engine.emplace(*machine, c.target, sim::RouterOptions{});
      }
      ++tally.routers[static_cast<int>(engine->router().backend())];
      sim::SimStats stats;
      {
        Scope s(lane, "sim.engine_run");
        stats = engine->run(packets, c.traffic_max_cycles);
      }
      ++tally.engine_runs;
      tally.engine_cycles += stats.cycles;
      tally.max_queue_depth = std::max<std::uint64_t>(tally.max_queue_depth, stats.max_queue_depth);
    }
  }
}

/// One replay pass over block 0 of every cell, with the checkpoint written
/// after each cell and the report built at the end — what the runner does
/// around its blocks. Returns each cell's tally.
std::vector<Tally> replay_pass(const ScenarioSpec& spec, const std::vector<ReplayCell>& cells,
                               const std::vector<ScenarioResult>& blocks,
                               const std::vector<CellRunner>& runners,
                               const std::string& checkpoint_path, Trace::Lane& lane,
                               Result& result) {
  Scope window(lane, "replay.campaign");
  std::vector<Tally> per_cell(cells.size());
  Checkpoint ckpt;
  ckpt.fingerprint = spec_fingerprint(spec);
  ckpt.shard_stamp = shard_fingerprint(spec, ShardSpec{});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::uint64_t trials = trials_in_block(spec.trials, 0);
    for (std::uint64_t t = 0; t < trials; ++t) replay_trial(spec, cells[i], t, lane, per_cell[i]);

    Scope s(lane, "campaign.checkpoint");
    CellProgress progress;
    progress.scenario_index = cells[i].cell.index;
    progress.prefix_blocks = 1;
    progress.prefix = blocks[i];
    ckpt.cells.push_back(std::move(progress));
    write_file(checkpoint_path, checkpoint_to_json(spec, ckpt));
  }
  Scope s(lane, "campaign.report");
  CampaignResult report;
  report.spec = spec;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ScenarioResult r = blocks[i];
    runners[i].finalize(r);
    report.scenarios.push_back(std::move(r));
  }
  const std::string json = campaign_report_json(report);
  if (validate_campaign_report(json) != cells.size()) {
    result.fail("replay report cell count differs from the grid");
    ++result.failed;
  }
  return per_cell;
}

void trace_replay(const ScenarioSpec& spec, const Options& options, Result& result,
                  Trace& trace) {
  Trace::Lane& lane = trace.new_lane();
  const std::vector<ScenarioCase> grid = expand_grid(spec);
  std::vector<ReplayCell> cells;
  std::vector<CellRunner> runners;
  for (const ScenarioCase& cell : grid) {
    cells.push_back(build_replay_cell(spec, cell));
    runners.emplace_back(spec, cell);
  }
  const std::string checkpoint_path = options.out_dir + "/" + options.workload + ".replay.ckpt";

  double off_s = 0.0;
  double on_s = 0.0;
  Tally total;
  const Clock::time_point start = Clock::now();
  do {
    // Reference: the library's own trial loop, untraced.
    std::vector<ScenarioResult> blocks;
    for (const CellRunner& runner : runners) blocks.push_back(runner.run_block(0));

    trace.set_enabled(false);
    Clock::time_point t0 = Clock::now();
    (void)replay_pass(spec, cells, blocks, runners, checkpoint_path, lane, result);
    off_s += seconds_between(t0, Clock::now());

    trace.set_enabled(true);
    t0 = Clock::now();
    const std::vector<Tally> per_cell =
        replay_pass(spec, cells, blocks, runners, checkpoint_path, lane, result);
    on_s += seconds_between(t0, Clock::now());

    for (std::size_t i = 0; i < cells.size(); ++i) {
      ++result.attempted;
      const ScenarioResult& ref = blocks[i];
      if (per_cell[i].trials != ref.trials || per_cell[i].successes != ref.reconfig_success ||
          per_cell[i].faults != fault_sum(ref)) {
        ++result.failed;
        result.fail("replay of cell " + std::to_string(i) +
                    " disagrees with CellRunner::run_block(0)");
      }
      total.add(per_cell[i]);
    }
  } while (seconds_between(start, Clock::now()) < options.seconds);

  const Trace::TotalsMap totals = trace.totals();
  auto us = [&](const char* name) { return Trace::mean(totals, name, 1e3); };
  auto ms = [&](const char* name) { return Trace::mean(totals, name, 1e6); };
  result.set_per_layer("fault_models.draw_us", us("fault_models.draw"), "us");
  result.set_per_layer("ft.survives_us", us("ft.survives"), "us");
  result.set_per_layer("sim.reconfigure_us", us("sim.reconfigure"), "us");
  result.set_per_layer("graph.diameter_us", us("graph.diameter"), "us");
  result.set_per_layer("sim.stretch_us", us("sim.stretch"), "us");
  result.set_per_layer("sim.router_build_us", us("sim.router_build"), "us");
  result.set_per_layer("sim.schedule_build_us", us("sim.schedule_build"), "us");
  result.set_per_layer("sim.collective_us", us("sim.collective"), "us");
  result.set_per_layer("sim.traffic_gen_us", us("sim.traffic_gen"), "us");
  result.set_per_layer("sim.engine_run_us", us("sim.engine_run"), "us");
  result.set_per_layer("campaign.checkpoint_ms", ms("campaign.checkpoint"), "ms");
  result.set_per_layer("campaign.report_ms", ms("campaign.report"), "ms");
  const double trials = static_cast<double>(total.trials);
  result.set_per_layer("trial.success_ratio", static_cast<double>(total.successes) / trials,
                       "ratio");
  result.set_per_layer("trial.faults_mean", static_cast<double>(total.faults) / trials, "count");
  const double runs = static_cast<double>(total.engine_runs);
  const double routers = static_cast<double>(total.routers[0] + total.routers[1] +
                                             total.routers[2]);
  if (runs > 0) {
    result.set_per_layer("engine.cycles_per_trial",
                         static_cast<double>(total.engine_cycles) / trials, "count");
    result.set_per_layer("engine.max_queue_depth", static_cast<double>(total.max_queue_depth),
                         "count");
    const auto share = [&](sim::RouterBackend b) {
      return static_cast<double>(total.routers[static_cast<int>(b)]) / routers;
    };
    result.set_per_layer("router.table_backend_share", share(sim::RouterBackend::Table), "ratio");
    result.add_detail("router.compressed_backend_share", share(sim::RouterBackend::Compressed),
                      "ratio");
    result.add_detail("router.implicit_backend_share", share(sim::RouterBackend::Implicit),
                      "ratio");
  }
  result.set_per_layer("trace.unattributed_share", trace.unattributed_share("replay.campaign"),
                       "ratio");
  result.set_per_layer("trace.overhead_share", (on_s - off_s) / off_s, "ratio");

  // Every span's share of the replay windows, for reading the breakdown.
  const double window_ns = Trace::total(totals, "replay.campaign", 1.0);
  for (const auto& [name, t] : totals) {
    if (name == "replay.campaign") continue;
    result.add_detail("share." + name, t.total_ns / window_ns, "ratio");
  }
  result.add_detail("replay.trials", trials, "count");
}

}  // namespace

void run_campaign_survival(const Options& options, Result& result, Trace& trace) {
  const ScenarioSpec spec = survival_spec(options.seed);
  if (options.trace) {
    trace_replay(spec, options, result, trace);
  } else {
    measure(spec, options, result);
  }
}

void run_campaign_sim(const Options& options, Result& result, Trace& trace) {
  const ScenarioSpec spec = sim_spec(options.seed);
  if (options.trace) {
    trace_replay(spec, options, result, trace);
  } else {
    measure(spec, options, result);
  }
}

}  // namespace perfbench
