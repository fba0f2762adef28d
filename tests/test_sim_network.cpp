// Tests for the simulated machine abstraction (src/sim/network).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/tolerance.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/schedule.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {
namespace {

TEST(Machine, DirectIsIdentity) {
  const Machine m = Machine::direct(debruijn_base2(3));
  EXPECT_EQ(m.num_logical(), 8u);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(m.to_physical[v], v);
    EXPECT_EQ(m.to_logical[v], v);
    EXPECT_FALSE(m.dead[v]);
  }
}

TEST(Machine, DirectWithFaultsMarksDead) {
  const FaultSet faults(8, {2, 6});
  const Machine m = Machine::direct_with_faults(debruijn_base2(3), faults);
  EXPECT_TRUE(m.dead[2]);
  EXPECT_TRUE(m.dead[6]);
  EXPECT_FALSE(m.dead[0]);
}

TEST(Machine, DirectWithFaultsUniverseMismatchThrows) {
  const FaultSet faults(9, {2});
  EXPECT_THROW(Machine::direct_with_faults(debruijn_base2(3), faults), std::invalid_argument);
}

TEST(Machine, ReconfiguredMapsAroundFaults) {
  const Graph ft = ft_debruijn_base2(3, 1);  // 9 nodes
  const FaultSet faults(9, {4});
  const Machine m = Machine::reconfigured(ft, faults, 8);
  EXPECT_EQ(m.num_logical(), 8u);
  EXPECT_EQ(m.to_physical[3], 3u);
  EXPECT_EQ(m.to_physical[4], 5u);  // skips the fault
  EXPECT_EQ(m.to_logical[5], 4u);
  EXPECT_EQ(m.to_logical[4], kInvalidNode);
  EXPECT_TRUE(m.dead[4]);
}

TEST(Machine, ReconfiguredTooManyFaultsThrows) {
  const Graph ft = ft_debruijn_base2(3, 1);
  const FaultSet faults(9, {0, 1});
  EXPECT_THROW(Machine::reconfigured(ft, faults, 8), std::invalid_argument);
}

TEST(Machine, LiveLogicalGraph_HealthyDirectEqualsTarget) {
  const Graph target = debruijn_base2(4);
  const Machine m = Machine::direct(target);
  EXPECT_TRUE(m.live_logical_graph(target).same_structure(target));
}

TEST(Machine, LiveLogicalGraph_FaultsRemoveIncidentEdges) {
  const Graph target = debruijn_base2(3);
  const FaultSet faults(8, {1});
  const Machine m = Machine::direct_with_faults(target, faults);
  const Graph live = m.live_logical_graph(target);
  EXPECT_EQ(live.degree(1), 0u);
  EXPECT_LT(live.num_edges(), target.num_edges());
}

TEST(Machine, LiveLogicalGraph_ReconfiguredPresentsFullTarget) {
  // The paper's guarantee, operationally: after reconfiguration every target
  // edge is a live physical link.
  const Graph target = debruijn_base2(4);
  const Graph ft = ft_debruijn_base2(4, 2);
  SplitMix64 rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    const FaultSet faults = FaultSet::random(ft.num_nodes(), 2, rng);
    const Machine m = Machine::reconfigured(ft, faults, target.num_nodes());
    EXPECT_TRUE(m.live_logical_graph(target).same_structure(target)) << "trial " << trial;
  }
}

auto fields(const ScheduleRunResult& r) {
  return std::make_tuple(r.rounds, r.total_cycles, r.total_hop_cycles, r.max_link_congestion,
                         r.logical_sends, r.delivered, r.undeliverable, r.timed_out);
}

auto fields(const SimStats& s) {
  return std::make_tuple(s.injected, s.delivered, s.undeliverable, s.timed_out, s.cycles,
                         s.total_latency, s.max_latency, s.total_hops, s.max_queue_depth);
}

std::vector<NodeId> identity_ranks(std::size_t n) {
  std::vector<NodeId> ranks(n);
  for (std::size_t v = 0; v < n; ++v) ranks[v] = static_cast<NodeId>(v);
  return ranks;
}

/// The engine-level form of the paper's claim: after any fault set that
/// passes monotone_embedding_survives, the packet engine cannot tell the
/// reconfigured machine from the healthy target — the Bruck all-to-all and a
/// zipf batch produce the healthy machine's results field for field. The
/// campaign runner leans on exactly this to give every successful trial the
/// cell's healthy collective run and the block's healthy simulator.
void expect_success_runs_like_healthy(const Graph& target, const Graph& ft, unsigned spares,
                                      const std::string& what) {
  const std::size_t n = target.num_nodes();
  const Schedule bruck =
      build_schedule(ScheduleKind::AllToAllBruck, static_cast<std::uint32_t>(n));
  const std::vector<NodeId> ranks = identity_ranks(n);
  const ScheduleRunResult healthy_run =
      execute_schedule(Machine::direct(target), target, bruck, ranks);
  PacketSimulator healthy(Machine::direct(target), target);
  SplitMix64 rng(2026);
  for (std::uint64_t draw = 0; draw < 100; ++draw) {
    const FaultSet faults = FaultSet::random(ft.num_nodes(), rng.next_u64() % (spares + 1), rng);
    ASSERT_TRUE(monotone_embedding_survives(target, ft, faults)) << what << " draw " << draw;
    const Machine m = Machine::reconfigured(ft, faults, n);
    EXPECT_EQ(fields(execute_schedule(m, target, bruck, ranks)), fields(healthy_run))
        << what << " draw " << draw;
    const std::vector<Packet> packets = zipf_traffic(n, 4 * n, 1.0, draw, 16);
    EXPECT_EQ(fields(run_packets(m, target, packets)), fields(healthy.run(packets)))
        << what << " draw " << draw;
  }
}

TEST(SuccessfulReconfiguration, DeBruijnB26RunsLikeTheHealthyTarget) {
  expect_success_runs_like_healthy(debruijn_graph({.base = 2, .digits = 6}),
                                   ft_debruijn_graph({.base = 2, .digits = 6, .spares = 2}), 2,
                                   "B_{2,6}");
}

TEST(SuccessfulReconfiguration, ShuffleExchangeSE6RunsLikeTheHealthyTarget) {
  expect_success_runs_like_healthy(shuffle_exchange_graph(6),
                                   ft_shuffle_exchange_natural(6, 2).ft_graph, 2, "SE_6");
}

TEST(SuccessfulReconfiguration, DeBruijnB34RunsLikeTheHealthyTarget) {
  expect_success_runs_like_healthy(debruijn_graph({.base = 3, .digits = 4}),
                                   ft_debruijn_graph({.base = 3, .digits = 4, .spares = 2}), 2,
                                   "B_{3,4}");
}

TEST(EdgeFaults, ConvertedToCoveringNodeFaults) {
  const Graph g = debruijn_base2(3);
  const std::vector<Edge> bad{{0, 1}, {1, 2}};
  const auto nodes = edge_faults_to_node_faults(g, bad);
  // Node 1 covers both faulty edges.
  EXPECT_EQ(nodes, (std::vector<NodeId>{1}));
}

TEST(EdgeFaults, DisjointEdgesNeedTwoNodes) {
  const Graph g = debruijn_base2(3);
  const std::vector<Edge> bad{{0, 1}, {6, 7}};
  const auto nodes = edge_faults_to_node_faults(g, bad);
  EXPECT_EQ(nodes.size(), 2u);
}

TEST(EdgeFaults, EmptyInput) {
  EXPECT_TRUE(edge_faults_to_node_faults(debruijn_base2(3), {}).empty());
}

}  // namespace
}  // namespace ftdb::sim
