// Pins of the packet engine's observable behaviour: every SimStats field on
// fixed workloads, the end-of-cycle queue-depth semantics, inject-order
// handling of unsorted batches, and reuse of one simulator across truncated
// runs, traffic batches and schedule steps. The golden rows were produced by
// the per-link deque engine, so any queueing rewrite has to reproduce them
// hop for hop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ft/reconfigure.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {
namespace {

struct Row {
  std::uint64_t injected, delivered, undeliverable, timed_out, cycles, total_latency,
      max_latency, total_hops, max_queue_depth;
};

Row row_of(const SimStats& s) {
  return {s.injected,      s.delivered,   s.undeliverable, s.timed_out,
          s.cycles,        s.total_latency, s.max_latency, s.total_hops,
          static_cast<std::uint64_t>(s.max_queue_depth)};
}

std::string format(const Row& r) {
  std::ostringstream out;
  out << "{" << r.injected << ", " << r.delivered << ", " << r.undeliverable << ", "
      << r.timed_out << ", " << r.cycles << ", " << r.total_latency << ", " << r.max_latency
      << ", " << r.total_hops << ", " << r.max_queue_depth << "}";
  return out.str();
}

void expect_same(const SimStats& a, const SimStats& b, const std::string& what) {
  EXPECT_EQ(format(row_of(a)), format(row_of(b))) << what;
}

RouterOptions forced(RouterOptions::Backend backend) { return RouterOptions{backend}; }

/// Compares each run with its golden row; on a mismatch the message carries
/// the actual row in table syntax.
void expect_golden(const std::vector<SimStats>& runs, const std::vector<Row>& golden,
                   const std::string& what) {
  if (runs.size() != golden.size()) {
    std::string actual;
    for (const SimStats& s : runs) actual += "      " + format(row_of(s)) + ",\n";
    FAIL() << what << ": " << runs.size() << " runs, " << golden.size() << " golden rows\n"
           << actual;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(format(row_of(runs[i])), format(golden[i])) << what << " run " << i;
  }
}

/// Each step of the Bruck all-to-all on the healthy machine, as
/// execute_schedule runs it: one simulator, one batch per step.
std::vector<SimStats> bruck_steps(const Graph& target) {
  const Machine machine = Machine::direct(target);
  const auto n = static_cast<std::uint32_t>(target.num_nodes());
  const Schedule schedule = build_schedule(ScheduleKind::AllToAllBruck, n);
  std::vector<NodeId> ranks(n);
  for (NodeId v = 0; v < n; ++v) ranks[v] = v;
  PacketSimulator sim(machine, target);
  std::vector<SimStats> runs;
  std::vector<Packet> packets;
  for (std::size_t step = 0; step < schedule.rounds(); ++step) {
    schedule_step_packets(schedule, step, ranks, packets);
    if (!packets.empty()) runs.push_back(sim.run(packets));
  }
  return runs;
}

TEST(EnginePins, BurstOnOneLinkReportsEndOfCycleDepth) {
  // 32 packets from node 0 to its neighbor 1 all queue on one link. After
  // the first cycle's forward 31 remain: depth is sampled at the end of a
  // cycle, not right after injection (which would read 32).
  const Graph target = debruijn_base2(4);
  const Machine m = Machine::direct(target);
  std::vector<Packet> packets;
  for (std::uint64_t i = 0; i < 32; ++i) packets.push_back({i, 0, 1, 0});
  const SimStats stats = run_packets(m, target, packets);
  EXPECT_EQ(stats.delivered, 32u);
  EXPECT_EQ(stats.max_queue_depth, 31u);
  EXPECT_EQ(stats.cycles, 32u);
  EXPECT_EQ(stats.total_latency, 528u);  // 1 + 2 + ... + 32
  EXPECT_EQ(stats.max_latency, 32u);
  EXPECT_EQ(stats.total_hops, 32u);
}

TEST(EnginePins, UnsortedBatchMatchesItsSortedCopy) {
  const Graph target = debruijn_base2(5);
  const Machine m = Machine::direct(target);
  std::vector<Packet> unsorted = zipf_traffic(32, 400, 0.8, 5, /*packets_per_cycle=*/6);
  // Interleave the tail before the head so inject cycles go up and down.
  std::vector<Packet> shuffled;
  for (std::size_t i = 0; i < unsorted.size(); ++i) {
    shuffled.push_back(unsorted[i % 2 == 0 ? unsorted.size() - 1 - i / 2 : i / 2]);
  }
  ASSERT_FALSE(std::is_sorted(shuffled.begin(), shuffled.end(),
                              [](const Packet& a, const Packet& b) {
                                return a.inject_cycle < b.inject_cycle;
                              }));
  std::vector<Packet> sorted = shuffled;
  std::stable_sort(sorted.begin(), sorted.end(), [](const Packet& a, const Packet& b) {
    return a.inject_cycle < b.inject_cycle;
  });
  PacketSimulator sim(m, target);
  expect_same(sim.run(shuffled), sim.run(sorted), "unsorted vs stable-sorted batch");
}

TEST(EnginePins, TruncatedThenFullRunEqualsFreshRun) {
  // On the implicit backend every slab slot keeps the RouteHint of the last
  // packet routed through it: the stragglers the cut leaves behind hand
  // stale hints to the next run's packets.
  const std::vector<Packet> packets = zipf_traffic(32, 300, 0.9, 17, /*packets_per_cycle=*/8);
  for (const Graph& target : {debruijn_base2(5), shuffle_exchange_graph(5)}) {
    const Machine m = Machine::direct(target);
    for (const auto backend : {RouterOptions::Backend::Auto, RouterOptions::Backend::Implicit}) {
      PacketSimulator reused(m, target, forced(backend));
      const std::string what = std::string(debruijn_shape_of(target) ? "B(2,5)" : "SE_5") +
                               " on the " + router_backend_name(reused.router().backend()) +
                               " backend";
      const SimStats cut = reused.run(packets, 5);
      ASSERT_GT(cut.timed_out, 0u) << what;
      expect_same(cut, PacketSimulator(m, target, forced(RouterOptions::Backend::Table))
                           .run(packets, 5),
                  "truncated run, " + what);
      const SimStats full = reused.run(packets);
      PacketSimulator fresh(m, target, forced(RouterOptions::Backend::Table));
      expect_same(full, fresh.run(packets), "reused after truncation vs fresh, " + what);
    }
  }
}

/// Feeds one simulator a truncated zipf run, every step of the Bruck
/// all-to-all among `survivors`, then a full zipf run, and checks each run
/// against a fresh table-backed simulator built for it alone.
void expect_reuse_like_fresh(const Machine& machine, const Graph& target,
                             const std::vector<NodeId>& survivors,
                             RouterOptions::Backend backend, const std::string& what) {
  const Schedule schedule =
      build_schedule(ScheduleKind::AllToAllBruck, static_cast<std::uint32_t>(survivors.size()));
  std::vector<std::vector<Packet>> steps(schedule.rounds());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    schedule_step_packets(schedule, i, survivors, steps[i]);
  }
  const std::size_t n = target.num_nodes();
  const std::vector<Packet> truncated = zipf_traffic(n, 512, 1.2, 99, /*packets_per_cycle=*/64);
  const std::vector<Packet> full = zipf_traffic(n, 256, 1.0, 4, /*packets_per_cycle=*/16);
  const auto fresh = [&] {
    return PacketSimulator(machine, target, forced(RouterOptions::Backend::Table));
  };

  PacketSimulator reused(machine, target, forced(backend));
  const SimStats cut = reused.run(truncated, /*max_cycles=*/6);
  ASSERT_GT(cut.timed_out, 0u) << what;
  expect_same(cut, fresh().run(truncated, 6), what + ": truncated zipf");
  for (std::size_t i = 0; i < steps.size(); ++i) {
    expect_same(reused.run(steps[i]), fresh().run(steps[i]),
                what + ": survivors' Bruck step " + std::to_string(i));
  }
  expect_same(reused.run(full), fresh().run(full), what + ": full zipf");
}

TEST(EnginePins, OneSimulatorServesTrafficAndCollectiveRoundsLikeFreshOnes) {
  // The campaign runner keeps one simulator per machine and feeds it a
  // trial's collective steps and traffic in turn (and a block's healthy
  // simulator serves many trials). Every run must match a simulator built
  // for it alone, whatever ran before it — also on the implicit backend,
  // whose recycled slab slots hold the hints of earlier packets.
  const Graph target = debruijn_base2(6);
  const Machine degraded = Machine::direct_with_faults(target, FaultSet(64, {5, 22, 41}));
  std::vector<NodeId> survivors;
  for (NodeId v = 0; v < 64; ++v) {
    if (v != 5 && v != 22 && v != 41) survivors.push_back(v);
  }
  expect_reuse_like_fresh(degraded, target, survivors, RouterOptions::Backend::Auto,
                          "degraded B(2,6)");

  for (const Graph& healthy : {debruijn_base2(5), shuffle_exchange_graph(5)}) {
    std::vector<NodeId> all(healthy.num_nodes());
    for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
    expect_reuse_like_fresh(Machine::direct(healthy), healthy, all,
                            RouterOptions::Backend::Implicit,
                            debruijn_shape_of(healthy) ? "implicit B(2,5)" : "implicit SE_5");
  }
}

// Columns: injected, delivered, undeliverable, timed_out, cycles,
// total_latency, max_latency, total_hops, max_queue_depth.

TEST(EnginePins, GoldenZipfOnDegradedDeBruijn) {
  const Graph target = debruijn_base2(6);
  const Machine degraded = Machine::direct_with_faults(target, FaultSet(64, {5, 22, 41}));
  PacketSimulator sim(degraded, target);
  const std::vector<SimStats> runs{
      sim.run(zipf_traffic(64, 512, 0.9, 2026, /*packets_per_cycle=*/16)),
      sim.run(zipf_traffic(64, 512, 0.0, 7, /*packets_per_cycle=*/64)),
      sim.run(zipf_traffic(64, 512, 1.2, 99, /*packets_per_cycle=*/64), /*max_cycles=*/6),
  };
  const std::vector<Row> golden{
      {512, 458, 54, 0, 70, 3666, 41, 1701, 20},
      {512, 463, 49, 0, 28, 2982, 22, 1609, 8},
      {384, 86, 33, 265, 6, 256, 6, 206, 11},
  };
  expect_golden(runs, golden, "zipf on degraded B_{2,6}");
}

TEST(EnginePins, GoldenBruckStepsOnDeBruijnB34) {
  const std::vector<Row> golden{
      {3240, 3240, 0, 0, 121, 97601, 121, 7120, 41},
      {3240, 3240, 0, 0, 122, 107008, 122, 8160, 41},
      {3240, 3240, 0, 0, 121, 110940, 121, 9120, 80},
      {3240, 3240, 0, 0, 163, 141283, 163, 9680, 100},
      {2673, 2673, 0, 0, 102, 79703, 102, 7656, 67},
      {2592, 2592, 0, 0, 98, 79328, 98, 7680, 33},
      {1377, 1377, 0, 0, 68, 24629, 68, 4046, 50},
  };
  expect_golden(bruck_steps(debruijn_graph({.base = 3, .digits = 4})), golden, "Bruck on B_{3,4}");
}

TEST(EnginePins, GoldenBruckStepsOnShuffleExchangeSE6) {
  const std::vector<Row> golden{
      {2048, 2048, 0, 0, 128, 73489, 128, 5472, 62},
      {2048, 2048, 0, 0, 196, 113689, 196, 7872, 64},
      {2048, 2048, 0, 0, 164, 125678, 164, 8960, 64},
      {2048, 2048, 0, 0, 163, 141238, 163, 9280, 94},
      {2048, 2048, 0, 0, 193, 131143, 193, 8896, 64},
      {2048, 2048, 0, 0, 66, 47552, 66, 5888, 33},
  };
  expect_golden(bruck_steps(shuffle_exchange_graph(6)), golden, "Bruck on SE_6");
}

}  // namespace
}  // namespace ftdb::sim
