// Tests for the synchronous store-and-forward engine: conservation, latency
// accounting, degradation under faults, and full service after reconfiguration.
#include <gtest/gtest.h>

#include <string>

#include "ft/ft_debruijn.hpp"
#include "sim/engine.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {
namespace {

TEST(Engine, SinglePacketLatencyEqualsDistance) {
  const Graph target = debruijn_base2(4);
  const Machine m = Machine::direct(target);
  // 0 -> 15: BFS distance in B_{2,4} is 4 (append four 1s).
  const std::vector<Packet> packets{{0, 0, 15, 0}};
  const SimStats stats = run_packets(m, target, packets);
  EXPECT_EQ(stats.injected, 1u);
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.undeliverable, 0u);
  EXPECT_EQ(stats.max_latency, 4u);
  EXPECT_EQ(stats.total_hops, 4u);
}

TEST(Engine, SelfPacketDeliversInstantly) {
  const Graph target = debruijn_base2(3);
  const Machine m = Machine::direct(target);
  const SimStats stats = run_packets(m, target, {{0, 3, 3, 0}});
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.total_latency, 0u);
}

TEST(Engine, PacketConservation) {
  const Graph target = debruijn_base2(5);
  const Machine m = Machine::direct(target);
  const auto packets = uniform_traffic(32, 500, 4, 123);
  const SimStats stats = run_packets(m, target, packets);
  EXPECT_EQ(stats.injected, 500u);
  EXPECT_EQ(stats.delivered + stats.undeliverable, stats.injected);
  EXPECT_EQ(stats.undeliverable, 0u);  // healthy machine delivers everything
}

TEST(Engine, ContentionIncreasesLatency) {
  const Graph target = debruijn_base2(4);
  const Machine m = Machine::direct(target);
  // Everyone sends to node 0 simultaneously: the two links into 0 serialize.
  std::vector<Packet> packets;
  for (NodeId s = 1; s < 16; ++s) packets.push_back({s, s, 0, 0});
  const SimStats stats = run_packets(m, target, packets);
  EXPECT_EQ(stats.delivered, 15u);
  // 15 packets over 2 incoming links takes at least ceil(15/2) cycles.
  EXPECT_GE(stats.cycles, 8u);
  EXPECT_GT(stats.max_queue_depth, 1u);
}

TEST(Engine, MaxCyclesCutsRunShort) {
  const Graph target = debruijn_base2(4);
  const Machine m = Machine::direct(target);
  std::vector<Packet> packets;
  for (NodeId s = 1; s < 16; ++s) packets.push_back({s, s, 0, 0});
  EngineOptions options;
  options.max_cycles = 2;
  const SimStats stats = run_packets(m, target, packets, options);
  EXPECT_LE(stats.cycles, 2u);
  EXPECT_LT(stats.delivered, 15u);
  // Packets cut off in flight are accounted, not lost: the conservation
  // invariant holds on the truncated path too.
  EXPECT_GT(stats.timed_out, 0u);
  EXPECT_EQ(stats.injected, stats.delivered + stats.undeliverable + stats.timed_out);
}

TEST(Engine, TimedOutAccountsEveryInFlightPacket) {
  // A congested hotspot run truncated mid-flight: every injected packet must
  // land in exactly one of delivered / undeliverable / timed_out.
  const Graph target = debruijn_base2(5);
  const Machine m = Machine::direct(target);
  const auto packets = hotspot_burst_traffic(32, 600, {0}, 0.8, /*burst_cycles=*/1, 11,
                                             /*packets_per_cycle=*/64);
  for (const std::uint64_t cap : {1u, 3u, 7u, 20u, 0u}) {
    EngineOptions options;
    options.max_cycles = cap;
    const SimStats stats = run_packets(m, target, packets, options);
    EXPECT_EQ(stats.injected, stats.delivered + stats.undeliverable + stats.timed_out)
        << "max_cycles=" << cap;
    if (cap == 0) {
      EXPECT_EQ(stats.timed_out, 0u);  // drained runs time nothing out
    }
  }
}

TEST(Engine, TimedOutZeroOnDrainedFaultyRun) {
  const Graph target = debruijn_base2(4);
  const FaultSet faults(16, {1, 8});
  const Machine degraded = Machine::direct_with_faults(target, faults);
  const auto packets = uniform_traffic(16, 300, 2, 7);
  const SimStats stats = run_packets(degraded, target, packets);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_EQ(stats.injected, stats.delivered + stats.undeliverable + stats.timed_out);
}

TEST(Engine, SimulatorReusableAcrossTruncatedRuns) {
  // A PacketSimulator whose previous run was cut off mid-flight must start
  // the next run from clean queues — the collective executor depends on it.
  const Graph target = debruijn_base2(4);
  const Machine m = Machine::direct(target);
  PacketSimulator sim(m, target);
  std::vector<Packet> packets;
  for (NodeId s = 1; s < 16; ++s) packets.push_back({s, s, 0, 0});
  const SimStats cut = sim.run(packets, 2);
  EXPECT_GT(cut.timed_out, 0u);
  const SimStats full = sim.run(packets);
  EXPECT_EQ(full.delivered, 15u);
  EXPECT_EQ(full.timed_out, 0u);
  const SimStats oracle = run_packets(m, target, packets);
  EXPECT_EQ(full.cycles, oracle.cycles);
  EXPECT_EQ(full.total_latency, oracle.total_latency);
}

TEST(Engine, SimulatorOutlivesTheMachineItWasBuiltFrom) {
  // The simulator copies the machine's liveness, so building it from a
  // temporary is safe: run() must not reach back into the dead Machine.
  const Graph target = debruijn_base2(4);
  PacketSimulator sim(Machine::direct_with_faults(target, FaultSet(16, {1, 8})), target);
  EXPECT_EQ(sim.num_logical(), 16u);
  const auto packets = uniform_traffic(16, 300, 2, 7);
  const SimStats stats = sim.run(packets);
  const Machine degraded = Machine::direct_with_faults(target, FaultSet(16, {1, 8}));
  const SimStats oracle = run_packets(degraded, target, packets);
  EXPECT_GT(stats.undeliverable, 0u);
  EXPECT_EQ(stats.undeliverable, oracle.undeliverable);
  EXPECT_EQ(stats.delivered, oracle.delivered);
  EXPECT_EQ(stats.total_latency, oracle.total_latency);
}

TEST(Engine, FaultyBareMachineDropsTraffic) {
  // PERF2 shape, small scale: faults on the bare target make some packets
  // undeliverable and lengthen surviving routes.
  const Graph target = debruijn_base2(4);
  const FaultSet faults(16, {1, 8});
  const Machine degraded = Machine::direct_with_faults(target, faults);
  const auto packets = uniform_traffic(16, 300, 2, 7);
  const SimStats stats = run_packets(degraded, target, packets);
  EXPECT_GT(stats.undeliverable, 0u);
  EXPECT_EQ(stats.delivered + stats.undeliverable, stats.injected);
}

TEST(Engine, ReconfiguredMachineDeliversEverything) {
  const Graph target = debruijn_base2(4);
  const Graph ft = ft_debruijn_base2(4, 2);
  const FaultSet faults(ft.num_nodes(), {3, 11});
  const Machine m = Machine::reconfigured(ft, faults, target.num_nodes());
  const auto packets = uniform_traffic(16, 300, 2, 7);
  const SimStats stats = run_packets(m, target, packets);
  EXPECT_EQ(stats.undeliverable, 0u);
  EXPECT_EQ(stats.delivered, stats.injected);
}

TEST(Engine, ReconfiguredLatencyMatchesHealthyTarget) {
  // The FT machine presents the identical logical topology, so latency under
  // identical traffic matches the healthy target exactly (deterministic
  // engine) — the operational content of Theorem 1.
  const Graph target = debruijn_base2(5);
  const Graph ft = ft_debruijn_base2(5, 3);
  const auto packets = uniform_traffic(32, 400, 4, 99);

  const Machine healthy = Machine::direct(target);
  const SimStats base = run_packets(healthy, target, packets);

  const FaultSet faults(ft.num_nodes(), {2, 17, 30});
  const Machine reconf = Machine::reconfigured(ft, faults, target.num_nodes());
  const SimStats after = run_packets(reconf, target, packets);

  EXPECT_EQ(after.delivered, base.delivered);
  EXPECT_EQ(after.total_latency, base.total_latency);
  EXPECT_EQ(after.max_latency, base.max_latency);
  EXPECT_EQ(after.cycles, base.cycles);
}

TEST(Engine, AllRouterBackendsProduceIdenticalTraffic) {
  // The backends share one canonical next-hop policy, so the cycle-accurate
  // simulation — queues, latencies, drain time — must be bit-identical no
  // matter which backend routes it (the implicit one through per-slot
  // RouteHints the engine recycles with the slots).
  const auto packets = uniform_traffic(32, 400, 4, 2024);
  for (const Graph& target : {debruijn_base2(5), shuffle_exchange_graph(5)}) {
    const std::string shape = debruijn_shape_of(target) ? "B(2,5) " : "SE_5 ";
    auto run_with = [&](const Machine& machine, RouterOptions::Backend backend) {
      EngineOptions options;
      options.router.backend = backend;
      return run_packets(machine, target, packets, options);
    };
    auto expect_same = [&](const SimStats& a, const SimStats& b, const char* what) {
      EXPECT_EQ(a.delivered, b.delivered) << shape << what;
      EXPECT_EQ(a.undeliverable, b.undeliverable) << shape << what;
      EXPECT_EQ(a.cycles, b.cycles) << shape << what;
      EXPECT_EQ(a.total_latency, b.total_latency) << shape << what;
      EXPECT_EQ(a.max_latency, b.max_latency) << shape << what;
      EXPECT_EQ(a.total_hops, b.total_hops) << shape << what;
      EXPECT_EQ(a.max_queue_depth, b.max_queue_depth) << shape << what;
    };

    const Machine healthy = Machine::direct(target);
    const SimStats table = run_with(healthy, RouterOptions::Backend::Table);
    expect_same(table, run_with(healthy, RouterOptions::Backend::Compressed),
                "healthy/compressed");
    expect_same(table, run_with(healthy, RouterOptions::Backend::Implicit), "healthy/implicit");
    expect_same(table, run_with(healthy, RouterOptions::Backend::Auto), "healthy/auto");

    const FaultSet faults(32, {3, 17});
    const Machine degraded = Machine::direct_with_faults(target, faults);
    const SimStats dtable = run_with(degraded, RouterOptions::Backend::Table);
    expect_same(dtable, run_with(degraded, RouterOptions::Backend::Compressed),
                "degraded/compressed");
    expect_same(dtable, run_with(degraded, RouterOptions::Backend::Auto), "degraded/auto");
  }
}

TEST(Engine, PermutationTrafficDrains) {
  const Graph target = debruijn_base2(5);
  const Machine m = Machine::direct(target);
  const auto packets = permutation_traffic(bit_reversal_permutation(5));
  const SimStats stats = run_packets(m, target, packets);
  EXPECT_EQ(stats.delivered, 32u);
  EXPECT_GT(stats.cycles, 0u);
}

}  // namespace
}  // namespace ftdb::sim
