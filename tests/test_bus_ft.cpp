// Tests for the Section V bus implementations: structure, degree 2k+3,
// tolerance under the restricted bus discipline, bus-fault conversion, and
// the equivalence of the bus survival check with the point-to-point one on
// the realized graph.
#include <gtest/gtest.h>


#include "ft/bus_ft.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/tolerance.hpp"
#include "topology/debruijn.hpp"

namespace ftdb {
namespace {

TEST(BusDeBruijn, OneBusPerNodeWithShiftBlock) {
  const BusGraph fabric = bus_debruijn_base2(3);
  EXPECT_EQ(fabric.num_nodes(), 8u);
  EXPECT_EQ(fabric.num_buses(), 8u);
  // Node i drives a bus to {2i, 2i+1} mod 8.
  const Bus& b3 = fabric.bus(3);
  EXPECT_EQ(b3.driver, 3u);
  EXPECT_EQ(b3.members, (std::vector<NodeId>{6, 7}));
}

TEST(BusDeBruijn, RealizesTheDeBruijnGraph) {
  for (unsigned h = 3; h <= 6; ++h) {
    EXPECT_TRUE(bus_debruijn_base2(h).realized_graph().same_structure(debruijn_base2(h)))
        << "h=" << h;
  }
}

TEST(BusDeBruijn, DegreeAtMostThree) {
  // Each node drives 1 bus and is a member of at most 2 others.
  for (unsigned h = 3; h <= 6; ++h) {
    EXPECT_LE(bus_debruijn_base2(h).max_bus_degree(), 3u) << "h=" << h;
  }
}

TEST(BusFtDeBruijn, Fig4Structure) {
  // Paper Fig. 4: B^1_{2,3} with buses — 9 nodes, 9 buses, each bus a block
  // of 2k+2 = 4 consecutive nodes starting at (2i - 1) mod 9.
  const BusGraph fabric = bus_ft_debruijn_base2(3, 1);
  EXPECT_EQ(fabric.num_nodes(), 9u);
  EXPECT_EQ(fabric.num_buses(), 9u);
  const Bus& b0 = fabric.bus(0);
  EXPECT_EQ(b0.driver, 0u);
  // Block {8, 0, 1, 2} with the driver itself excluded from the member list.
  EXPECT_EQ(b0.members, (std::vector<NodeId>{1, 2, 8}));
}

TEST(BusFtDeBruijn, BusBlockMatchesPointToPointNeighborhood) {
  // The bus of node i must cover exactly the forward block the point-to-point
  // construction connects i to, so communicability == FT-graph adjacency.
  const unsigned h = 4;
  const unsigned k = 2;
  const BusGraph fabric = bus_ft_debruijn_base2(h, k);
  const Graph ft = ft_debruijn_base2(h, k);
  for (std::size_t u = 0; u < fabric.num_nodes(); ++u) {
    for (std::size_t v = 0; v < fabric.num_nodes(); ++v) {
      if (u == v) continue;
      EXPECT_EQ(fabric.can_communicate(static_cast<NodeId>(u), static_cast<NodeId>(v)),
                ft.has_edge(static_cast<NodeId>(u), static_cast<NodeId>(v)))
          << "u=" << u << " v=" << v;
    }
  }
}

class BusDegree : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(BusDegree, SectionV_DegreeAtMost2kPlus3) {
  const auto [h, k] = GetParam();
  const BusGraph fabric = bus_ft_debruijn_base2(h, k);
  EXPECT_LE(fabric.max_bus_degree(), bus_ft_degree_bound(k)) << "h=" << h << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BusDegree,
                         ::testing::Values(std::pair<unsigned, unsigned>{3, 0},
                                           std::pair<unsigned, unsigned>{3, 1},
                                           std::pair<unsigned, unsigned>{4, 1},
                                           std::pair<unsigned, unsigned>{4, 2},
                                           std::pair<unsigned, unsigned>{5, 3},
                                           std::pair<unsigned, unsigned>{6, 2},
                                           std::pair<unsigned, unsigned>{7, 4}));

TEST(BusDegree, HalvesThePointToPointDegree) {
  // The Section V motivation: 2k+3 vs 4k+4 — "almost a factor of 2".
  for (unsigned k = 1; k <= 5; ++k) {
    EXPECT_LT(2 * bus_ft_degree_bound(k), (4u * k + 4) + 3);
    EXPECT_LE(bus_ft_degree_bound(k), (4u * k + 4) / 2 + 1);
  }
}

class BusTolerance : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(BusTolerance, ExhaustiveNodeFaultTolerance) {
  const auto [h, k] = GetParam();
  const Graph target = debruijn_base2(h);
  const BusGraph fabric = bus_ft_debruijn_base2(h, k);
  bool all_ok = true;
  for_each_fault_set(fabric.num_nodes(), k, [&](const std::vector<NodeId>& subset) {
    if (!bus_monotone_embedding_survives(target, fabric, FaultSet(fabric.num_nodes(), subset))) {
      all_ok = false;
      return false;
    }
    return true;
  });
  EXPECT_TRUE(all_ok) << "h=" << h << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BusTolerance,
                         ::testing::Values(std::pair<unsigned, unsigned>{3, 1},
                                           std::pair<unsigned, unsigned>{3, 2},
                                           std::pair<unsigned, unsigned>{4, 1},
                                           std::pair<unsigned, unsigned>{4, 2},
                                           std::pair<unsigned, unsigned>{5, 1}));

TEST(BusFaults, DriverConversionToleratesBusFailure) {
  // Fig. 5 scenario + the bus-fault rule: a faulty bus is handled by treating
  // its driver as faulty, then reconfiguring as usual.
  const unsigned h = 3;
  const unsigned k = 1;
  const Graph target = debruijn_base2(h);
  const BusGraph fabric = bus_ft_debruijn_base2(h, k);
  for (std::uint32_t bad_bus = 0; bad_bus < fabric.num_buses(); ++bad_bus) {
    const auto faults = resolve_bus_faults(fabric, k, {}, {bad_bus});
    ASSERT_TRUE(faults.has_value());
    EXPECT_TRUE(bus_monotone_embedding_survives(target, fabric, *faults)) << "bus " << bad_bus;
  }
}

TEST(BusFaults, CombinedNodeAndBusFaultsWithinBudget) {
  const BusGraph fabric = bus_ft_debruijn_base2(4, 2);
  // One node fault + one bus fault = 2 converted node faults <= k = 2.
  const auto faults = resolve_bus_faults(fabric, 2, {5}, {11});
  ASSERT_TRUE(faults.has_value());
  EXPECT_EQ(faults->count(), 2u);
  EXPECT_TRUE(faults->is_faulty(5));
  EXPECT_TRUE(faults->is_faulty(11));  // bus 11's driver is node 11
}

TEST(BusFaults, OverBudgetRejected) {
  const BusGraph fabric = bus_ft_debruijn_base2(3, 1);
  EXPECT_FALSE(resolve_bus_faults(fabric, 1, {0}, {5}).has_value());
}

TEST(BusFaults, DuplicateDriverAndNodeFaultCollapses) {
  const BusGraph fabric = bus_ft_debruijn_base2(3, 1);
  // Node 4 faulty and bus 4 (driver 4) faulty: only one distinct fault.
  const auto faults = resolve_bus_faults(fabric, 1, {4}, {4});
  ASSERT_TRUE(faults.has_value());
  EXPECT_EQ(faults->count(), 1u);
}

// The campaign runner checks bus cells with monotone_embedding_survives on
// the realized graph. That is sound only if the realized graph has an edge
// exactly where the restricted driver<->member discipline lets two nodes
// communicate. B_{2,h} survives every within-budget fault set, so it only
// fails for want of survivors; the second target adds the edges
// {x, 2x+2 mod 2^h}, which a bus carries for some fault sets and not for
// others, so there the edge test itself decides.
Graph debruijn_with_wide_edges(unsigned h) {
  const Graph base = debruijn_base2(h);
  const std::size_t n = base.num_nodes();
  GraphBuilder builder(n);
  for (const Edge& e : base.edges()) builder.add_edge(e.u, e.v);
  for (std::size_t x = 0; x < n; ++x) {
    builder.add_edge(static_cast<NodeId>(x), static_cast<NodeId>((2 * x + 2) % n));
  }
  return builder.build();
}

struct SurvivalTally {
  std::size_t survived = 0;
  std::size_t failed_within_budget = 0;  ///< failures the edge test decided
  std::size_t failed_over_budget = 0;
};

void expect_same_survival(const Graph& target, const BusGraph& bus, const Graph& realized,
                          unsigned k, const FaultSet& faults, SurvivalTally& tally) {
  const bool on_bus = bus_monotone_embedding_survives(target, bus, faults);
  ASSERT_EQ(on_bus, monotone_embedding_survives(target, realized, faults))
      << faults.count() << " faults, first " << (faults.count() ? faults.nodes()[0] : 0);
  if (on_bus) {
    ++tally.survived;
  } else {
    ++(faults.count() <= k ? tally.failed_within_budget : tally.failed_over_budget);
  }
}

/// Both targets must show both outcomes; only the wide one may fail within
/// the budget (B_{2,h} survives any k faults on B^k_{2,h}'s buses).
void expect_both_outcomes(const SurvivalTally& b2h, const SurvivalTally& wide) {
  EXPECT_GT(b2h.survived, 0u);
  EXPECT_GT(b2h.failed_over_budget, 0u);
  EXPECT_EQ(b2h.failed_within_budget, 0u);
  EXPECT_GT(wide.survived, 0u);
  EXPECT_GT(wide.failed_within_budget, 0u);
}

TEST(BusSurvival, MatchesRealizedGraphCheckOnEverySmallFaultSet) {
  const unsigned h = 4;
  const unsigned k = 2;
  const BusGraph bus = bus_ft_debruijn_base2(h, k);
  const Graph realized = bus.realized_graph();
  const Graph targets[] = {debruijn_base2(h), debruijn_with_wide_edges(h)};
  SurvivalTally tally[2];
  for (int t = 0; t < 2; ++t) {
    for (unsigned size = 0; size <= k + 1; ++size) {
      for_each_fault_set(bus.num_nodes(), size, [&](const std::vector<NodeId>& subset) {
        expect_same_survival(targets[t], bus, realized, k, FaultSet(bus.num_nodes(), subset),
                             tally[t]);
        return !::testing::Test::HasFatalFailure();
      });
    }
  }
  expect_both_outcomes(tally[0], tally[1]);
}

TEST(BusSurvival, MatchesRealizedGraphCheckOnSeededFaultSets) {
  const unsigned h = 8;
  const unsigned k = 4;
  const BusGraph bus = bus_ft_debruijn_base2(h, k);
  const Graph realized = bus.realized_graph();
  SplitMix64 rng(2718);
  const Graph targets[] = {debruijn_base2(h), debruijn_with_wide_edges(h)};
  SurvivalTally tally[2];
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < 10000; ++i) {
      const std::size_t size = rng.next_u64() % (k + 2);  // 0 .. k+1 faults
      expect_same_survival(targets[t], bus, realized, k,
                           FaultSet::random(bus.num_nodes(), size, rng), tally[t]);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "set " << i;
    }
  }
  expect_both_outcomes(tally[0], tally[1]);
}

}  // namespace
}  // namespace ftdb
