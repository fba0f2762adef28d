// engine_b2h18: one PacketSimulator on the reconfigured B^4_{2,18} (4 faults
// drawn from the workload seed), running 262,144 uniform packets — one per
// node, injected 65,536 per cycle.
//
// The traced run splits the engine's time: the same packets are routed wave
// by wave through PacketSimulator::router().route_many, once without hints
// (what the engine calls) and once carrying one RouteHint per packet; the rest
// of the run is queueing.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "ft/ft_debruijn.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"
#include "topology/debruijn.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftdb;
using Scope = Trace::Scope;

constexpr unsigned kDigits = 18;
constexpr unsigned kSpares = 4;
constexpr unsigned kFaults = 4;
constexpr std::uint64_t kPerCycle = 65536;

struct Engine {
  Graph target;
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::PacketSimulator> sim;
  std::vector<sim::Packet> packets;
};

/// Builds the machine, its simulator and the packet batch from the seed.
Engine build(std::uint64_t seed, Trace::Lane& lane) {
  Engine e;
  Graph ft;
  {
    Scope s(lane, "topology.debruijn_graph");
    e.target = debruijn_base2(kDigits);
  }
  {
    Scope s(lane, "ft.ft_debruijn_graph");
    ft = ft_debruijn_base2(kDigits, kSpares);
  }
  SplitMix64 rng(derive_seed(seed, 1));
  std::vector<NodeId> faults;
  while (faults.size() < kFaults) {
    const NodeId v = static_cast<NodeId>(rng.below(ft.num_nodes()));
    if (std::find(faults.begin(), faults.end(), v) == faults.end()) faults.push_back(v);
  }
  const std::size_t universe = ft.num_nodes();
  {
    Scope s(lane, "sim.reconfigure");
    e.machine = std::make_unique<sim::Machine>(sim::Machine::reconfigured(
        std::move(ft), FaultSet(universe, std::move(faults)), e.target.num_nodes()));
  }
  {
    Scope s(lane, "sim.router_build");
    e.sim = std::make_unique<sim::PacketSimulator>(*e.machine, e.target);
  }
  const std::uint64_t n = e.target.num_nodes();
  SplitMix64 dst_rng(derive_seed(seed, 2));
  e.packets.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    e.packets[i] = {i, static_cast<NodeId>(i), static_cast<NodeId>(dst_rng.below(n)),
                    i / kPerCycle};
  }
  return e;
}

/// Σ debruijn_distance(src, dst): the hop total of a dilation-1 run.
std::uint64_t expected_hops(const Engine& e) {
  const DeBruijnParams params{.base = 2, .digits = kDigits};
  std::uint64_t hops = 0;
  for (const sim::Packet& p : e.packets) hops += debruijn_distance(params, p.src, p.dst);
  return hops;
}

void check_backend(const Engine& e, Result& result) {
  const sim::Router& router = e.sim->router();
  if (router.backend() != sim::RouterBackend::Implicit) {
    result.fail(std::string("engine router backend is ") +
                sim::router_backend_name(router.backend()) + ", expected implicit");
  }
  if (router.memory_bytes() != 0) result.fail("implicit router owns heap bytes");
}

void check_run(const sim::SimStats& stats, std::uint64_t want_hops, Result& result) {
  result.attempted += stats.injected;
  result.failed += stats.injected - stats.delivered;
  if (stats.delivered != stats.injected) {
    result.fail("engine delivered " + std::to_string(stats.delivered) + " of " +
                std::to_string(stats.injected) + " packets");
  }
  if (stats.total_hops != want_hops) {
    result.fail("engine hops " + std::to_string(stats.total_hops) + " != sum of distances " +
                std::to_string(want_hops));
  }
}

struct RouteReplay {
  std::uint64_t hops = 0;
  std::uint64_t waves = 0;
};

/// Routes every packet to its destination wave by wave, the way the engine's
/// injection schedule releases them, one route_many call per wave.
RouteReplay replay_routes(const Engine& e, bool hinted, Trace::Lane& lane) {
  const sim::Router& router = e.sim->router();
  const char* span = hinted ? "router.route_many_hinted" : "router.route_many";
  std::vector<NodeId> dests, cur, out;
  std::vector<sim::RouteHint> hints;
  RouteReplay r;
  std::size_t next = 0;
  for (std::uint64_t cycle = 0; next < e.packets.size() || !cur.empty(); ++cycle) {
    for (; next < e.packets.size() && e.packets[next].inject_cycle <= cycle; ++next) {
      if (e.packets[next].src == e.packets[next].dst) continue;
      dests.push_back(e.packets[next].dst);
      cur.push_back(e.packets[next].src);
      hints.emplace_back();
    }
    out.resize(cur.size());
    {
      Scope s(lane, span);
      if (hinted) {
        router.route_many(dests, cur, out, hints);
      } else {
        router.route_many(dests, cur, out);
      }
    }
    r.hops += cur.size();
    ++r.waves;
    std::size_t w = 0;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      if (out[i] == dests[i]) continue;
      dests[w] = dests[i];
      cur[w] = out[i];
      hints[w] = hints[i];
      ++w;
    }
    dests.resize(w);
    cur.resize(w);
    hints.resize(w);
  }
  return r;
}

void measure(const Options& options, Result& result, Trace& trace) {
  Trace::Lane& lane = trace.new_lane();
  std::vector<double> setup;
  std::vector<double> walls;
  std::vector<double> rates;
  std::uint64_t want_hops = 0;
  {
    // One untimed round first: a fresh process builds and runs 30-40%
    // slower (first-touch page faults on ~0.9 GB), which would sway a
    // median of only two or three timed rounds.
    const Engine e = build(options.seed, lane);
    check_backend(e, result);
    want_hops = expected_hops(e);
    check_run(e.sim->run(e.packets), want_hops, result);
  }
  const Clock::time_point start = Clock::now();
  // Each round builds the machine afresh (one set-up sample) and runs the
  // batch once, so set-up and run medians sample the same machine time.
  do {
    Clock::time_point t0 = Clock::now();
    const Engine e = build(options.seed, lane);
    setup.push_back(seconds_between(t0, Clock::now()));
    check_backend(e, result);

    t0 = Clock::now();
    const sim::SimStats stats = e.sim->run(e.packets);
    const double wall = seconds_between(t0, Clock::now());
    check_run(stats, want_hops, result);
    walls.push_back(wall * 1e6);
    rates.push_back(static_cast<double>(stats.total_hops) / wall);
    result.add_detail("engine.cycles", static_cast<double>(stats.cycles), "count");
    result.add_detail("engine.hops", static_cast<double>(stats.total_hops), "count");
  } while (seconds_between(start, Clock::now()) < options.seconds);

  result.set_end_to_end("setup_s", median(setup), "s");
  result.set_end_to_end("throughput_per_s", median(rates), "1/s");
  result.set_end_to_end("latency_us", median(walls), "us");
  result.add_detail("engine.packet_hops_per_s", median(rates), "1/s");
  result.add_detail("engine.ns_per_delivered_hop", 1e9 / median(rates), "ns");
  result.add_detail("engine.runs", static_cast<double>(walls.size()), "count");
}

void traced(const Options& options, Result& result, Trace& trace) {
  Trace::Lane& lane = trace.new_lane();
  Engine e;
  {
    Scope window(lane, "replay.engine");
    e = build(options.seed, lane);
  }
  check_backend(e, result);
  const std::uint64_t want_hops = expected_hops(e);

  double off_s = 0.0, on_s = 0.0, run_s = 0.0;
  std::uint64_t hops = 0, replay_hops = 0, waves = 0, cycles = 0, max_queue = 0;
  const Clock::time_point start = Clock::now();
  do {
    trace.set_enabled(false);
    Clock::time_point t0 = Clock::now();
    check_run(e.sim->run(e.packets), want_hops, result);
    off_s += seconds_between(t0, Clock::now());

    trace.set_enabled(true);
    Scope window(lane, "replay.engine");
    sim::SimStats stats;
    t0 = Clock::now();
    {
      Scope s(lane, "sim.engine_run");
      stats = e.sim->run(e.packets);
    }
    const double run = seconds_between(t0, Clock::now());
    on_s += run;
    run_s += run;
    check_run(stats, want_hops, result);
    hops += stats.total_hops;
    cycles = stats.cycles;
    max_queue = std::max<std::uint64_t>(max_queue, stats.max_queue_depth);

    for (const bool hinted : {false, true}) {
      const RouteReplay r = replay_routes(e, hinted, lane);
      if (r.hops != want_hops) {
        result.fail("route replay hops " + std::to_string(r.hops) + " != sum of distances");
      }
      if (!hinted) {
        replay_hops += r.hops;
        waves += r.waves;
      }
    }
  } while (seconds_between(start, Clock::now()) < options.seconds);

  const Trace::TotalsMap totals = trace.totals();
  const double route_ns = Trace::total(totals, "router.route_many", 1.0);
  const double hinted_ns = Trace::total(totals, "router.route_many_hinted", 1.0);
  result.add_detail("sim.reconfigure_s", Trace::mean(totals, "sim.reconfigure", 1e9), "s");
  result.add_detail("sim.router_build_s", Trace::mean(totals, "sim.router_build", 1e9), "s");
  result.add_detail("engine.route_ns_per_hop", route_ns / static_cast<double>(replay_hops),
                    "ns");
  result.add_detail("engine.route_hinted_ns_per_hop",
                    hinted_ns / static_cast<double>(replay_hops), "ns");
  result.add_detail("engine.queue_ns_per_hop",
                    (run_s * 1e9 - route_ns) / static_cast<double>(hops), "ns");
  result.add_detail("engine.cycles", static_cast<double>(cycles), "count");
  result.add_detail("engine.hops", static_cast<double>(want_hops), "count");
  result.add_detail("engine.wave_mean",
                    static_cast<double>(replay_hops) / static_cast<double>(waves), "count");
  result.set_per_layer("engine.max_queue_depth", static_cast<double>(max_queue), "count");
  result.set_per_layer("trace.unattributed_share", trace.unattributed_share("replay.engine"),
                       "ratio");
  result.set_per_layer("trace.overhead_share", (on_s - off_s) / off_s, "ratio");
  result.add_detail("engine.run_ns_per_hop", run_s * 1e9 / static_cast<double>(hops), "ns");
  const double window_ns = Trace::total(totals, "replay.engine", 1.0);
  for (const auto& [name, t] : totals) {
    if (name != "replay.engine") result.add_detail("share." + name, t.total_ns / window_ns, "ratio");
  }
}

}  // namespace

void run_engine_b2h18(const Options& options, Result& result, Trace& trace) {
  if (options.trace) {
    traced(options, result, trace);
  } else {
    measure(options, result, trace);
  }
}

}  // namespace perfbench
