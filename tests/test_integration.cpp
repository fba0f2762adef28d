// End-to-end integration tests crossing all modules: build an FT machine,
// fault it, reconfigure, route real traffic, run Ascend, and compare against
// the degraded bare machine — the complete story the paper tells.
#include <gtest/gtest.h>

#include <numeric>

#include "ft/bus_ft.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/samatham_pradhan.hpp"
#include "ft/spares.hpp"
#include "ft/tolerance.hpp"
#include "graph/algorithms.hpp"
#include "sim/ascend_descend.hpp"
#include "sim/bus_engine.hpp"
#include "sim/engine.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb {
namespace {

TEST(EndToEnd, FullLifecycleDeBruijn) {
  const unsigned h = 5;
  const unsigned k = 3;
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, k);

  SplitMix64 rng(2024);
  for (int round = 0; round < 10; ++round) {
    const FaultSet faults = FaultSet::random(ft.num_nodes(), k, rng);
    // Structural guarantee.
    ASSERT_TRUE(monotone_embedding_survives(target, ft, faults));
    // Operational guarantee: full traffic service.
    const sim::Machine machine = sim::Machine::reconfigured(ft, faults, target.num_nodes());
    const auto packets = sim::uniform_traffic(target.num_nodes(), 200, 4, round);
    const auto stats = sim::run_packets(machine, target, packets);
    EXPECT_EQ(stats.delivered, stats.injected);
    // Algorithmic guarantee: Ascend still computes the right answer.
    std::vector<std::int64_t> values(target.num_nodes());
    std::iota(values.begin(), values.end(), 0);
    const auto total = std::accumulate(values.begin(), values.end(), std::int64_t{0});
    const auto result = sim::ascend_debruijn(
        h, values, [](std::int64_t a, std::int64_t b) { return a + b; }, 2, &machine);
    for (auto v : result.values) EXPECT_EQ(v, total);
  }
}

TEST(EndToEnd, DegradedVsReconfiguredContrast) {
  // The introduction's motivation, measured: a single fault on the bare
  // target breaks traffic and algorithms; the FT machine is unaffected.
  const unsigned h = 5;
  const Graph target = debruijn_base2(h);
  const auto packets = sim::uniform_traffic(target.num_nodes(), 400, 4, 5);

  const FaultSet bare_fault(target.num_nodes(), {7});
  const sim::Machine degraded = sim::Machine::direct_with_faults(target, bare_fault);
  const auto degraded_stats = sim::run_packets(degraded, target, packets);
  EXPECT_GT(degraded_stats.undeliverable, 0u);

  const Graph ft = ft_debruijn_base2(h, 1);
  const FaultSet ft_fault(ft.num_nodes(), {7});
  const sim::Machine healthy = sim::Machine::reconfigured(ft, ft_fault, target.num_nodes());
  const auto ft_stats = sim::run_packets(healthy, target, packets);
  EXPECT_EQ(ft_stats.undeliverable, 0u);
  EXPECT_EQ(ft_stats.delivered, ft_stats.injected);
}

TEST(EndToEnd, ShuffleExchangeBothRoutesAgree) {
  // Both FT-SE constructions must tolerate the same fault budget; compare on
  // a common instance.
  const unsigned h = 4;
  const unsigned k = 2;
  const Graph se = shuffle_exchange_graph(h);
  const auto via = ft_shuffle_exchange_via_debruijn(h, k);
  const auto natural = ft_shuffle_exchange_natural(h, k);

  SplitMix64 rng(77);
  for (int round = 0; round < 50; ++round) {
    const FaultSet faults_via = FaultSet::random(via.ft_graph.num_nodes(), k, rng);
    const auto phi_via = reconfigure(via, faults_via);
    ASSERT_TRUE(phi_via.has_value());
    for (const Edge& e : se.edges()) {
      EXPECT_TRUE(via.ft_graph.has_edge((*phi_via)[e.u], (*phi_via)[e.v]));
    }
    const FaultSet faults_nat = FaultSet::random(natural.ft_graph.num_nodes(), k, rng);
    const auto phi_nat = reconfigure(natural, faults_nat);
    ASSERT_TRUE(phi_nat.has_value());
    for (const Edge& e : se.edges()) {
      EXPECT_TRUE(natural.ft_graph.has_edge((*phi_nat)[e.u], (*phi_nat)[e.v]));
    }
  }
}

TEST(EndToEnd, BusMachineSurvivesMixedFaults) {
  const unsigned h = 4;
  const unsigned k = 2;
  const Graph target = debruijn_base2(h);
  const BusGraph fabric = bus_ft_debruijn_base2(h, k);
  // One node fault and one bus fault.
  const auto faults = resolve_bus_faults(fabric, k, {6}, {13});
  ASSERT_TRUE(faults.has_value());
  EXPECT_TRUE(bus_monotone_embedding_survives(target, fabric, *faults));
  // And the surviving fabric can schedule a full de Bruijn round.
  const auto phi = monotone_embedding(*faults);
  std::vector<sim::Transfer> transfers;
  for (const sim::Transfer& t : sim::debruijn_round_transfers(h)) {
    transfers.push_back(sim::Transfer{phi[t.src], phi[t.dst]});
  }
  const auto schedule = sim::schedule_bus(fabric, transfers, 1);
  EXPECT_TRUE(schedule.feasible);
}

TEST(EndToEnd, SparePlanningMatchesToleranceBudget) {
  // Choose k from the reliability model, then prove the built machine
  // tolerates every fault set within that budget.
  const unsigned h = 6;
  const std::uint64_t n = 64;
  const long double p = 0.005L;
  const unsigned k = min_spares_for_reliability(n, p, 0.999L, 12);
  ASSERT_LE(k, 12u);
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, k);
  const auto report = check_tolerance_pairwise(target, ft, k);
  EXPECT_TRUE(report.tolerant);
}

TEST(EndToEnd, BaselineComparisonOnEqualBudget) {
  // Same tolerance budget k: ours uses N+k nodes, the digit-copies baseline
  // (m(k+1))^h — verify both actually tolerate k faults, then compare cost.
  const std::uint64_t m = 2;
  const unsigned h = 3;
  const unsigned k = 1;
  const Graph target = debruijn_graph({.base = m, .digits = h});

  const Graph ours = ft_debruijn_graph({.base = m, .digits = h, .spares = k});
  EXPECT_TRUE(check_tolerance_exhaustive(target, ours, k).tolerant);

  const Graph baseline = digit_copies_graph(m, h, k);
  SplitMix64 rng(12);
  for (int round = 0; round < 100; ++round) {
    const FaultSet faults = FaultSet::random(baseline.num_nodes(), k, rng);
    const auto phi = digit_copies_reconfigure(m, h, k, faults);
    ASSERT_TRUE(phi.has_value());
    EXPECT_TRUE(is_valid_embedding(target, baseline, *phi));
  }
  EXPECT_LT(ours.num_nodes(), baseline.num_nodes());
}

TEST(EndToEnd, EdgeFaultsHandledViaNodeConversion) {
  // Paper: "edge faults can be tolerated by viewing a node that is incident
  // to the faulty edge as being faulty."
  const unsigned h = 4;
  const unsigned k = 2;
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, k);
  const std::vector<Edge> bad_edges{{3, 6}, {6, 12}};  // share node 6
  const auto node_faults = sim::edge_faults_to_node_faults(ft, bad_edges);
  ASSERT_LE(node_faults.size(), k);
  const FaultSet faults(ft.num_nodes(), node_faults);
  EXPECT_TRUE(monotone_embedding_survives(target, ft, faults));
}

}  // namespace
}  // namespace ftdb
