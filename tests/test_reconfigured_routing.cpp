// Tests for routing through the reconfiguration embedding: dilation-1
// translation of logical routes onto the physical fabric.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "graph/algorithms.hpp"
#include "graph/subgraph.hpp"
#include "sim/reconfigured_routing.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {
namespace {

Machine make_reconfigured(unsigned h, unsigned k, const std::vector<NodeId>& faults) {
  const Graph ft = ft_debruijn_base2(h, k);
  return Machine::reconfigured(ft, FaultSet(ft.num_nodes(), faults), std::size_t{1} << h);
}

TEST(PhysicalRoute, TranslatesThroughEmbedding) {
  const Machine m = make_reconfigured(3, 1, {2});
  // Logical nodes 2.. shift up by one physical slot.
  const auto phys = physical_route(m, {0, 1, 2, 3});
  EXPECT_EQ(phys, (std::vector<NodeId>{0, 1, 3, 4}));
}

TEST(PhysicalRoute, OutOfRangeThrows) {
  const Machine m = make_reconfigured(3, 1, {2});
  EXPECT_THROW(physical_route(m, {9}), std::out_of_range);
}

TEST(PhysicalRouteIsLive, DetectsDeadNodesAndMissingLinks) {
  const Machine m = make_reconfigured(3, 1, {2});
  EXPECT_FALSE(physical_route_is_live(m, {}));
  EXPECT_FALSE(physical_route_is_live(m, {0, 2}));  // node 2 is dead
  EXPECT_FALSE(physical_route_is_live(m, {0, 7}));  // not a B^1_{2,3} edge
  EXPECT_TRUE(physical_route_is_live(m, {0, 1}));
}

class RoutingOnReconfigured : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(RoutingOnReconfigured, EveryShiftRouteIsLiveOnEveryFaultSet) {
  const auto [h, k] = GetParam();
  const Graph ft = ft_debruijn_base2(h, k);
  const std::size_t n = std::size_t{1} << h;
  SplitMix64 rng(h * 10 + k);
  for (int trial = 0; trial < 10; ++trial) {
    const FaultSet faults = FaultSet::random(ft.num_nodes(), k, rng);
    const Machine m = Machine::reconfigured(ft, faults, n);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId d = 0; d < n; ++d) {
        const auto route = debruijn_route_on_machine(m, 2, h, s, d);
        EXPECT_TRUE(physical_route_is_live(m, route))
            << "s=" << +s << " d=" << +d << " trial=" << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RoutingOnReconfigured,
                         ::testing::Values(std::pair<unsigned, unsigned>{3, 1},
                                           std::pair<unsigned, unsigned>{4, 2},
                                           std::pair<unsigned, unsigned>{5, 3}));

TEST(SeRouteOnMachine, LiveOnNaturalFtMachine) {
  // SE routes through the natural-labeling FT-SE machine: every hop of the
  // logical SE route must map to a live physical link after reconfiguration.
  const unsigned h = 4;
  const unsigned k = 2;
  const auto se_machine = ftdb::ft_shuffle_exchange_natural(h, k);
  SplitMix64 rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    const FaultSet faults = FaultSet::random(se_machine.ft_graph.num_nodes(), k, rng);
    const Machine m = Machine::reconfigured(se_machine.ft_graph, faults, std::size_t{1} << h);
    for (NodeId s = 0; s < (1u << h); s += 3) {
      for (NodeId d = 0; d < (1u << h); d += 5) {
        const auto route = se_route_on_machine(m, h, s, d);
        EXPECT_TRUE(physical_route_is_live(m, route)) << "s=" << +s << " d=" << +d;
      }
    }
  }
}

TEST(MaxRouteStretch, HealthyMachineIsExactlyOne) {
  // With no faults the physical graph restricted to logical nodes contains
  // the target, and shift routes are at most h while shortest paths can be
  // shorter — stretch is bounded by h / 1 but the *average* case matters;
  // here we only pin that the function runs and is >= 1.
  const Machine m = make_reconfigured(4, 2, {});
  const double stretch = max_route_stretch(m, 2, 4);
  EXPECT_GE(stretch, 1.0);
  EXPECT_LE(stretch, 4.0);  // logical routes never exceed h hops
}

TEST(MaxRouteStretch, BoundedAfterFaults) {
  const Machine m = make_reconfigured(4, 2, {5, 11});
  const double stretch = max_route_stretch(m, 2, 4);
  // The FT graph is denser than the target, so physical shortest paths can
  // be shorter than logical routes — but never by more than a factor h.
  EXPECT_GE(stretch, 1.0);
  EXPECT_LE(stretch, 4.0);
}

TEST(MaxRouteStretch, SampledOverAllPairsEqualsTheFullAudit) {
  const Machine m = make_reconfigured(4, 2, {5, 11});
  std::vector<std::pair<NodeId, NodeId>> all_pairs;
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s != d) all_pairs.emplace_back(s, d);
    }
  }
  EXPECT_DOUBLE_EQ(max_route_stretch_sampled(m, 2, 4, all_pairs), max_route_stretch(m, 2, 4));
}

TEST(MaxRouteStretch, SampledSubsetNeverExceedsTheFullAuditAndIgnoresSelfPairs) {
  const Machine m = make_reconfigured(4, 2, {2, 9});
  const double full = max_route_stretch(m, 2, 4);
  const std::vector<std::pair<NodeId, NodeId>> subset{{0, 15}, {3, 3}, {7, 12}, {15, 1}, {4, 8}};
  const double sampled = max_route_stretch_sampled(m, 2, 4, subset);
  EXPECT_GE(sampled, 1.0);
  EXPECT_LE(sampled, full + 1e-12);
  EXPECT_DOUBLE_EQ(max_route_stretch_sampled(m, 2, 4, {}), 1.0);
}

/// Brute-force stretch oracle: one plain BFS per logical source on the live
/// logical graph (numerators) and one per source on the survivor-induced
/// physical graph (denominators). Deliberately avoids the router and the
/// bit-parallel batch kernel that the production audit uses.
double stretch_oracle(const Machine& m, const Graph& target) {
  const Graph logical = m.live_logical_graph(target);
  std::vector<NodeId> live;
  for (NodeId v = 0; v < m.physical.num_nodes(); ++v) {
    if (!m.dead[v]) live.push_back(v);
  }
  const InducedSubgraph survivors = induced_subgraph(m.physical, live);
  std::vector<NodeId> p2s(m.physical.num_nodes(), kInvalidNode);
  for (std::size_t i = 0; i < survivors.to_original.size(); ++i) {
    p2s[survivors.to_original[i]] = static_cast<NodeId>(i);
  }

  double worst = 1.0;
  const std::size_t n = m.num_logical();
  for (NodeId src = 0; src < n; ++src) {
    const auto logical_dist = bfs_distances(logical, src);
    const auto phys_dist = bfs_distances(survivors.graph, p2s[m.to_physical[src]]);
    for (NodeId dst = 0; dst < n; ++dst) {
      if (src == dst || logical_dist[dst] == kUnreachable) continue;
      const std::uint32_t shortest = phys_dist[p2s[m.to_physical[dst]]];
      if (shortest == 0 || shortest == kUnreachable) continue;
      worst = std::max(worst,
                       static_cast<double>(logical_dist[dst]) / static_cast<double>(shortest));
    }
  }
  return worst;
}

TEST(MaxRouteStretchSe, HopExactAgainstDoubleBfsOracle) {
  // The campaign's shuffle-exchange stretch metric must be hop-exact: the
  // batched survivor sweeps and the logical router have to agree with the
  // naive per-source double-BFS audit on every fault set.
  const unsigned h = 4;
  const unsigned k = 2;
  const auto se = ftdb::ft_shuffle_exchange_natural(h, k);
  SplitMix64 rng(1992);
  for (int trial = 0; trial < 8; ++trial) {
    const FaultSet faults = FaultSet::random(se.ft_graph.num_nodes(), k, rng);
    const Machine m = Machine::reconfigured(se.ft_graph, faults, std::size_t{1} << h);
    EXPECT_DOUBLE_EQ(max_route_stretch_se(m, h),
                     stretch_oracle(m, shuffle_exchange_graph(h)))
        << "trial=" << trial;
  }
}

TEST(MaxRouteStretchSe, SampledOverAllPairsEqualsTheFullAudit) {
  const unsigned h = 4;
  const auto se = ftdb::ft_shuffle_exchange_natural(h, 2);
  SplitMix64 rng(77);
  const FaultSet faults = FaultSet::random(se.ft_graph.num_nodes(), 2, rng);
  const Machine m = Machine::reconfigured(se.ft_graph, faults, std::size_t{1} << h);
  std::vector<std::pair<NodeId, NodeId>> all_pairs;
  for (NodeId s = 0; s < (1u << h); ++s) {
    for (NodeId d = 0; d < (1u << h); ++d) {
      if (s != d) all_pairs.emplace_back(s, d);
    }
  }
  EXPECT_DOUBLE_EQ(max_route_stretch_se_sampled(m, h, all_pairs), max_route_stretch_se(m, h));
  EXPECT_DOUBLE_EQ(max_route_stretch_se_sampled(m, h, {}), 1.0);
}

TEST(MaxRouteStretchDeBruijn, HopExactAgainstDoubleBfsOracle) {
  // Same oracle, de Bruijn family: pins the shared core from the other entry
  // point so a regression in either target builder shows up here.
  SplitMix64 rng(42);
  const Graph ft = ft_debruijn_base2(4, 2);
  for (int trial = 0; trial < 4; ++trial) {
    const FaultSet faults = FaultSet::random(ft.num_nodes(), 2, rng);
    const Machine m = Machine::reconfigured(ft, faults, 16);
    EXPECT_DOUBLE_EQ(max_route_stretch(m, 2, 4), stretch_oracle(m, debruijn_base2(4)))
        << "trial=" << trial;
  }
}

/// Every ordered pair of distinct logical nodes, the sample that makes the
/// sampled audit the full one, plus a short subset with a self-pair.
std::vector<std::pair<NodeId, NodeId>> audit_samples(std::size_t n, bool all) {
  const auto last = static_cast<NodeId>(n - 1);
  if (!all) return {{0, last}, {3, 3}, {7, 2}, {last, 1}};
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s != d) pairs.emplace_back(s, d);
    }
  }
  return pairs;
}

TEST(MaxRouteStretch, TargetRouterEqualsTheSelfBuildingAuditsOnSurvivingFaultSets) {
  // A fault set within the spare budget survives (Theorems 1/2), so the
  // machine's live logical graph is the target and the target's own router —
  // the one a campaign block's healthy simulator holds — is the one the
  // self-building audits construct.
  const unsigned h = 4;
  const unsigned k = 2;
  const Graph db_target = debruijn_base2(h);
  const Graph db_ft = ft_debruijn_base2(h, k);
  const auto se = ft_shuffle_exchange_natural(h, k);
  const Graph se_target = shuffle_exchange_graph(h);
  const std::unique_ptr<Router> db_router = make_router(db_target);
  const std::unique_ptr<Router> se_router = make_router(se_target);
  SplitMix64 rng(2027);
  for (int trial = 0; trial < 6; ++trial) {
    const Machine db = Machine::reconfigured(
        db_ft, FaultSet::random(db_ft.num_nodes(), k, rng), db_target.num_nodes());
    const Machine sm = Machine::reconfigured(
        se.ft_graph, FaultSet::random(se.ft_graph.num_nodes(), k, rng), se_target.num_nodes());
    ASSERT_TRUE(db.live_logical_graph(db_target).same_structure(db_target)) << trial;
    ASSERT_TRUE(sm.live_logical_graph(se_target).same_structure(se_target)) << trial;
    EXPECT_DOUBLE_EQ(max_route_stretch(db, *db_router), max_route_stretch(db, 2, h)) << trial;
    EXPECT_DOUBLE_EQ(max_route_stretch(sm, *se_router), max_route_stretch_se(sm, h)) << trial;
    for (const bool all : {true, false}) {
      const auto db_pairs = audit_samples(db_target.num_nodes(), all);
      const auto se_pairs = audit_samples(se_target.num_nodes(), all);
      EXPECT_DOUBLE_EQ(max_route_stretch_sampled(db, *db_router, db_pairs),
                       max_route_stretch_sampled(db, 2, h, db_pairs))
          << trial << " all=" << all;
      EXPECT_DOUBLE_EQ(max_route_stretch_sampled(sm, *se_router, se_pairs),
                       max_route_stretch_se_sampled(sm, h, se_pairs))
          << trial << " all=" << all;
    }
  }
}

TEST(MaxRouteStretch, RouterOfAnotherSizeIsRefused) {
  const Machine m = make_reconfigured(4, 2, {5, 11});
  const std::unique_ptr<Router> small = make_router(debruijn_base2(3));
  EXPECT_THROW(max_route_stretch(m, *small), std::invalid_argument);
  EXPECT_THROW(max_route_stretch_sampled(m, *small, {{0, 1}}), std::invalid_argument);
}

TEST(MachineLogicalRouter, PicksImplicitExactlyWhenDilationOneSurvives) {
  const Graph target = debruijn_base2(4);
  // Forcing the implicit backend succeeds exactly when the machine still
  // presents the shape, which is what this test pins down. (With default
  // options a 16-node machine gets the table — see MakeRouter's policy test.)
  RouterOptions implicit;
  implicit.backend = RouterOptions::Backend::Implicit;
  // Reconfigured within budget: implicit.
  const Machine ok = make_reconfigured(4, 2, {5, 11});
  EXPECT_EQ(machine_logical_router(ok, target, implicit)->backend(), RouterBackend::Implicit);
  EXPECT_EQ(machine_logical_router(ok, target)->backend(), RouterBackend::Table);
  // Degraded bare target: holes in the logical graph, no shape to route by.
  const Machine degraded =
      Machine::direct_with_faults(debruijn_base2(4), FaultSet(16, {5, 11}));
  EXPECT_THROW(machine_logical_router(degraded, target, implicit), std::invalid_argument);
}

}  // namespace
}  // namespace ftdb::sim
