// Property tests for the store-and-forward engine on random topologies and
// workloads: conservation, latency lower bounds, work bounds, and
// reconfiguration equivalence as a universally quantified property.
#include <gtest/gtest.h>

#include <random>

#include "ft/ft_debruijn.hpp"
#include "graph/algorithms.hpp"
#include "sim/engine.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/hypercube.hpp"

namespace ftdb::sim {
namespace {

Graph random_connected_graph(std::size_t n, std::mt19937_64& rng) {
  GraphBuilder b(n);
  // Random spanning tree, then extra chords.
  for (std::size_t v = 1; v < n; ++v) {
    std::uniform_int_distribution<std::size_t> parent(0, v - 1);
    b.add_edge(static_cast<NodeId>(parent(rng)), static_cast<NodeId>(v));
  }
  std::uniform_int_distribution<std::size_t> any(0, n - 1);
  for (std::size_t extra = 0; extra < n; ++extra) {
    b.add_edge(static_cast<NodeId>(any(rng)), static_cast<NodeId>(any(rng)));
  }
  return b.build();
}

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperty, ConservationAndLatencyBounds) {
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 8 + rng() % 40;
  const Graph g = random_connected_graph(n, rng);
  const Machine m = Machine::direct(g);
  const auto packets = uniform_traffic(n, 150, 3, GetParam() * 7 + 1);
  const SimStats stats = run_packets(m, g, packets);

  // Conservation: every packet is accounted for.
  EXPECT_EQ(stats.injected, packets.size());
  EXPECT_EQ(stats.delivered + stats.undeliverable, stats.injected);
  EXPECT_EQ(stats.undeliverable, 0u);  // connected machine

  // Work bound: total hops at least the sum of shortest distances.
  std::uint64_t lower = 0;
  for (const Packet& p : packets) {
    const auto dist = bfs_distances(g, p.src);
    lower += dist[p.dst];
  }
  EXPECT_GE(stats.total_hops, lower);

  // Latency bound: max latency at least the max shortest distance of any
  // packet, and cycles at least max latency... cycles count from time zero,
  // so cycles >= max inject + 1 hop for any non-self packet.
  EXPECT_LE(stats.throughput(), static_cast<double>(2 * g.num_edges()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class ReconfEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReconfEquivalence, AnyFaultSetAnyTrafficMatchesHealthyRun) {
  // Universal property: for random fault sets and random traffic, the
  // reconfigured FT machine's statistics equal the healthy target's.
  const unsigned h = 5;
  const unsigned k = 4;
  SplitMix64 rng(GetParam());
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, k);
  const auto packets = uniform_traffic(target.num_nodes(), 250, 4, GetParam());

  const SimStats healthy = run_packets(Machine::direct(target), target, packets);
  const FaultSet faults = FaultSet::random(ft.num_nodes(), k, rng);
  const SimStats reconf =
      run_packets(Machine::reconfigured(ft, faults, target.num_nodes()), target, packets);

  EXPECT_EQ(reconf.delivered, healthy.delivered);
  EXPECT_EQ(reconf.undeliverable, 0u);
  EXPECT_EQ(reconf.total_latency, healthy.total_latency);
  EXPECT_EQ(reconf.total_hops, healthy.total_hops);
  EXPECT_EQ(reconf.max_latency, healthy.max_latency);
  EXPECT_EQ(reconf.cycles, healthy.cycles);
  EXPECT_EQ(reconf.max_queue_depth, healthy.max_queue_depth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconfEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 110));

TEST(EngineProperty, HeavierLoadNeverDecreasesCycles) {
  // Monotonicity sanity: adding packets to the same workload cannot finish
  // sooner.
  const Graph g = hypercube_graph(5);
  const Machine m = Machine::direct(g);
  const auto small = uniform_traffic(32, 100, 4, 9);
  auto big = small;
  const auto more = uniform_traffic(32, 100, 4, 10);
  for (const auto& p : more) big.push_back(p);
  const auto s1 = run_packets(m, g, small);
  const auto s2 = run_packets(m, g, big);
  EXPECT_GE(s2.cycles, s1.cycles);
  EXPECT_EQ(s2.delivered, 200u);
}

TEST(EngineProperty, SingleSourceFloodDrainsInDegreeBoundedTime) {
  // One node sends to everyone: the source's out-links are the bottleneck;
  // the run must take at least ceil((N-1)/deg(src)) cycles.
  const Graph g = debruijn_base2(5);
  const Machine m = Machine::direct(g);
  std::vector<Packet> packets;
  for (NodeId d = 1; d < 32; ++d) packets.push_back({d, 0, d, 0});
  const auto stats = run_packets(m, g, packets);
  EXPECT_EQ(stats.delivered, 31u);
  EXPECT_GE(stats.cycles, (31 + g.degree(0) - 1) / g.degree(0));
}

}  // namespace
}  // namespace ftdb::sim
