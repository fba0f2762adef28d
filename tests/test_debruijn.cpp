// Tests for the de Bruijn target graphs, including the paper's claim (Sections
// III and IV) that the digit-shift definition and the algebraic X-based
// definition coincide.
#include <gtest/gtest.h>

#include <random>

#include "graph/algorithms.hpp"
#include "graph/bfs_workspace.hpp"
#include "stepper_protocol.hpp"
#include "topology/debruijn.hpp"
#include "topology/labels.hpp"

namespace ftdb {
namespace {

TEST(DeBruijn, NodeCount) {
  EXPECT_EQ(debruijn_num_nodes({.base = 2, .digits = 4}), 16u);
  EXPECT_EQ(debruijn_num_nodes({.base = 3, .digits = 3}), 27u);
  EXPECT_EQ(debruijn_num_nodes({.base = 5, .digits = 2}), 25u);
}

TEST(DeBruijn, InvalidParamsThrow) {
  EXPECT_THROW(debruijn_num_nodes({.base = 1, .digits = 3}), std::invalid_argument);
  EXPECT_THROW(debruijn_num_nodes({.base = 2, .digits = 0}), std::invalid_argument);
}

TEST(DeBruijn, Fig1_B24Structure) {
  // Paper Fig. 1: B_{2,4} has 16 nodes, degree <= 4.
  Graph g = debruijn_base2(4);
  EXPECT_EQ(g.num_nodes(), 16u);
  EXPECT_EQ(g.max_degree(), 4u);
  // Spot-check the binary definition: node 0110 (=6) connects to 1100 (=12),
  // 1101 (=13), 0011 (=3), 1011 (=11).
  EXPECT_TRUE(g.has_edge(6, 12));
  EXPECT_TRUE(g.has_edge(6, 13));
  EXPECT_TRUE(g.has_edge(6, 3));
  EXPECT_TRUE(g.has_edge(6, 11));
  EXPECT_EQ(g.degree(6), 4u);
}

TEST(DeBruijn, SelfLoopNodesHaveSmallerDegree) {
  // Nodes 0...0 and 1...1 lose their self-loops; 0 connects to 1 and 2^{h-1}.
  Graph g = debruijn_base2(4);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 8));
  EXPECT_EQ(g.degree(15), 2u);
}

class DeBruijnDefinitionEquivalence
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>> {};

TEST_P(DeBruijnDefinitionEquivalence, DigitAndAlgebraicDefinitionsMatch) {
  const auto [m, h] = GetParam();
  const DeBruijnParams params{.base = m, .digits = h};
  Graph digit = debruijn_graph_digit_definition(params);
  Graph algebraic = debruijn_graph(params);
  EXPECT_TRUE(digit.same_structure(algebraic)) << "m=" << m << " h=" << h;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeBruijnDefinitionEquivalence,
                         ::testing::Values(std::pair<std::uint64_t, unsigned>{2, 3},
                                           std::pair<std::uint64_t, unsigned>{2, 4},
                                           std::pair<std::uint64_t, unsigned>{2, 6},
                                           std::pair<std::uint64_t, unsigned>{3, 3},
                                           std::pair<std::uint64_t, unsigned>{3, 4},
                                           std::pair<std::uint64_t, unsigned>{4, 3},
                                           std::pair<std::uint64_t, unsigned>{5, 2},
                                           std::pair<std::uint64_t, unsigned>{5, 3}));

class DeBruijnProperties : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>> {};

TEST_P(DeBruijnProperties, DegreeAtMost2m) {
  const auto [m, h] = GetParam();
  Graph g = debruijn_graph({.base = m, .digits = h});
  EXPECT_LE(g.max_degree(), 2 * m);
}

TEST_P(DeBruijnProperties, Connected) {
  const auto [m, h] = GetParam();
  EXPECT_TRUE(is_connected(debruijn_graph({.base = m, .digits = h})));
}

TEST_P(DeBruijnProperties, DiameterAtMostH) {
  const auto [m, h] = GetParam();
  EXPECT_LE(diameter(debruijn_graph({.base = m, .digits = h})), h);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeBruijnProperties,
                         ::testing::Values(std::pair<std::uint64_t, unsigned>{2, 3},
                                           std::pair<std::uint64_t, unsigned>{2, 5},
                                           std::pair<std::uint64_t, unsigned>{2, 8},
                                           std::pair<std::uint64_t, unsigned>{3, 3},
                                           std::pair<std::uint64_t, unsigned>{4, 3},
                                           std::pair<std::uint64_t, unsigned>{5, 2}));

TEST(DeBruijn, OutNeighborsAreGraphEdgesOrSelfLoops) {
  const DeBruijnParams params{.base = 3, .digits = 3};
  Graph g = debruijn_graph(params);
  for (std::size_t x = 0; x < g.num_nodes(); ++x) {
    for (NodeId y : debruijn_out_neighbors(params, static_cast<NodeId>(x))) {
      if (y != static_cast<NodeId>(x)) {
        EXPECT_TRUE(g.has_edge(static_cast<NodeId>(x), y)) << "x=" << x << " y=" << y;
      }
    }
  }
}

TEST(DeBruijnDistance, MatchesBfsExhaustively) {
  // The digit-window alignment formula must be hop-exact against BFS on the
  // real graph for every pair — including h = 1 (the complete graph K_m) and
  // the constant-label corners where naive shift reasoning hits self-loops.
  for (std::uint64_t m = 2; m <= 4; ++m) {
    for (unsigned h = 1; h <= (m == 2 ? 6u : 4u); ++h) {
      const DeBruijnParams params{.base = m, .digits = h};
      const Graph g = debruijn_graph(params);
      for (NodeId x = 0; x < g.num_nodes(); ++x) {
        const auto dist = bfs_distances(g, x);
        for (NodeId y = 0; y < g.num_nodes(); ++y) {
          EXPECT_EQ(debruijn_distance(params, x, y), dist[y])
              << "m=" << m << " h=" << h << " " << +x << "->" << +y;
        }
      }
    }
  }
}

TEST(DeBruijnDistance, DiameterPairsReachFullShiftOffsetSafely) {
  // 0...0 -> 1...1 in B_{2,h} needs all h digits replaced, so the search
  // reaches the f == ±h iterations where no digit windows overlap. The lane
  // mask there must be empty (a naive build shifts by 64 — UB) and the
  // surviving candidate is hops = h, the true distance.
  for (unsigned h = 2; h <= 6; ++h) {
    const DeBruijnParams params{.base = 2, .digits = h};
    const auto ones = static_cast<NodeId>((std::uint64_t{1} << h) - 1);
    EXPECT_EQ(debruijn_distance(params, 0, ones), h) << "h=" << h;
    EXPECT_EQ(debruijn_distance(params, ones, 0), h) << "h=" << h;
  }
}

TEST(DeBruijnDistance, MixedShiftsBeatTheLeftOnlyRoute) {
  // 0001 -> 1000 in B_{2,4}: one right shift, but three left shifts — the
  // undirected distance is 1, strictly below the paper's left-shift route.
  EXPECT_EQ(debruijn_distance({.base = 2, .digits = 4}, 0b0001, 0b1000), 1u);
}

TEST(DeBruijnDistance, OutOfRangeThrows) {
  EXPECT_THROW(debruijn_distance({.base = 2, .digits = 3}, 8, 0), std::out_of_range);
}

TEST(DeBruijnNeighbors, MatchesGraphAdjacencyExactly) {
  const DeBruijnParams params{.base = 3, .digits = 3};
  const Graph g = debruijn_graph(params);
  std::vector<NodeId> nbrs;
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    debruijn_neighbors(params, x, nbrs);
    const auto actual = g.neighbors(x);
    ASSERT_EQ(nbrs.size(), actual.size()) << "x=" << +x;
    EXPECT_TRUE(std::equal(actual.begin(), actual.end(), nbrs.begin())) << "x=" << +x;
  }
}

TEST(DeBruijnShape, RecognizesEveryGridInstanceAndRejectsImpostors) {
  for (std::uint64_t m = 2; m <= 4; ++m) {
    for (unsigned h = 2; h <= 4; ++h) {
      const auto shape = debruijn_shape_of(debruijn_graph({.base = m, .digits = h}));
      ASSERT_TRUE(shape.has_value()) << "m=" << m << " h=" << h;
      EXPECT_EQ(shape->base, m);
      EXPECT_EQ(shape->digits, h);
    }
  }
  // Same node count, different edges: B_{2,4} vs B_{4,2} must not be confused.
  const auto b24 = debruijn_shape_of(debruijn_graph({.base = 2, .digits = 4}));
  ASSERT_TRUE(b24.has_value());
  EXPECT_EQ(b24->base, 2u);
  const auto b42 = debruijn_shape_of(debruijn_graph({.base = 4, .digits = 2}));
  ASSERT_TRUE(b42.has_value());
  EXPECT_EQ(b42->base, 4u);
  // A path graph of de Bruijn size is not a de Bruijn graph.
  EXPECT_FALSE(
      debruijn_shape_of(make_graph(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}}))
          .has_value());
}

TEST(DeBruijn, EdgeIffShiftRelation) {
  // Exhaustive cross-check of the edge predicate against first principles.
  const unsigned h = 4;
  const std::uint64_t n = 16;
  Graph g = debruijn_base2(h);
  for (std::uint64_t x = 0; x < n; ++x) {
    for (std::uint64_t y = x + 1; y < n; ++y) {
      bool expected = false;
      for (std::uint64_t r = 0; r < 2; ++r) {
        if ((2 * x + r) % n == y || (2 * y + r) % n == x) expected = true;
      }
      EXPECT_EQ(g.has_edge(static_cast<NodeId>(x), static_cast<NodeId>(y)), expected)
          << "x=" << x << " y=" << y;
    }
  }
}


// --- the distance stepper's routing protocol ---

TEST(DeBruijn, StepperResetMatchesDistanceAllPairs) {
  // Exhaustive: reset() (packed bit/nibble scans with the O(1) offset
  // filters) must equal the canonical formula for every pair, m in {2,3,4}.
  for (std::uint64_t m = 2; m <= 4; ++m) {
    for (unsigned h = 2; h <= 4; ++h) {
      const DeBruijnParams params{.base = m, .digits = h};
      const std::uint64_t n = debruijn_num_nodes(params);
      for (std::uint64_t y = 0; y < n; ++y) {
        DebruijnDistanceStepper stepper(params, static_cast<NodeId>(y));
        for (std::uint64_t x = 0; x < n; ++x) {
          const std::uint32_t want =
              debruijn_distance(params, static_cast<NodeId>(x), static_cast<NodeId>(y));
          EXPECT_EQ(stepper.reset(static_cast<NodeId>(x)), want)
              << "m=" << m << " h=" << h << " x=" << x << " y=" << y;
          EXPECT_EQ(stepper.distance(), want);
          EXPECT_EQ(stepper.node(), static_cast<NodeId>(x));
        }
      }
    }
  }
}

TEST(DeBruijn, StepperProbeRespectsCapAndExactness) {
  // probe() from freshly reset positions (opt mask collected lazily), on a
  // bit-packed and a nibble-packed shape.
  for (const auto& params :
       {DeBruijnParams{.base = 2, .digits = 8}, DeBruijnParams{.base = 3, .digits = 5}}) {
    const std::uint64_t n = debruijn_num_nodes(params);
    std::mt19937_64 rng(42);
    for (int trial = 0; trial < 500; ++trial) {
      const auto x = static_cast<NodeId>(rng() % n);
      const auto y = static_cast<NodeId>(rng() % n);
      DebruijnDistanceStepper stepper(params, y);
      stepper.reset(x);
      stepper_protocol::expect_probes_exact(
          stepper, [&](NodeId w) { return debruijn_distance(params, w, y); });
      ASSERT_FALSE(HasFailure()) << "m=" << params.base << " x=" << x << " y=" << y;
    }
  }
}

TEST(DeBruijn, StepperRandomWalkAgreesWithFormula) {
  // 10k seeded steps per shape, every neighbor probed at each, across the
  // bit-packed, nibble-packed and generic (2 < m <= 16, h > 16) scans.
  for (const auto& params :
       {DeBruijnParams{.base = 2, .digits = 10}, DeBruijnParams{.base = 3, .digits = 5},
        DeBruijnParams{.base = 4, .digits = 4}, DeBruijnParams{.base = 3, .digits = 17}}) {
    const std::uint64_t n = debruijn_num_nodes(params);
    std::mt19937_64 rng(1000 * params.base + params.digits);
    const auto dest = static_cast<NodeId>(rng() % n);
    DebruijnDistanceStepper stepper(params, dest);
    stepper_protocol::walk(stepper, static_cast<NodeId>(rng() % n), 10000, rng(),
                           [&](NodeId w) { return debruijn_distance(params, w, dest); });
    ASSERT_FALSE(HasFailure()) << "m=" << params.base << " h=" << params.digits;
  }
}

TEST(DeBruijn, NeighborsFixedMatchesVector) {
  // probe_neighbors, the router's fixed-array enumeration, lists exactly
  // debruijn_neighbors, in order.
  for (std::uint64_t m = 2; m <= 4; ++m) {
    for (unsigned h = 2; h <= 4; ++h) {
      const DeBruijnParams params{.base = m, .digits = h};
      const std::uint64_t n = debruijn_num_nodes(params);
      DebruijnDistanceStepper stepper(params, 0);
      std::vector<NodeId> expected;
      for (std::uint64_t x = 0; x < n; ++x) {
        stepper.reset(static_cast<NodeId>(x));
        debruijn_neighbors(params, static_cast<NodeId>(x), expected);
        EXPECT_EQ(stepper_protocol::neighbor_ids(stepper), expected) << "m=" << m << " x=" << x;
      }
    }
  }
}

TEST(DeBruijnDistance, WideBasesMatchBfs) {
  // m = 17 leaves the packed scans for generic_distance_scan: every pair of
  // B_{17,2}, and every 31st source of B_{17,3} (plus its last node) to
  // every destination.
  for (unsigned h : {2u, 3u}) {
    const DeBruijnParams params{.base = 17, .digits = h};
    const Graph g = debruijn_graph(params);
    const std::uint64_t n = g.num_nodes();
    const std::uint64_t stride = h == 2 ? 1 : 31;
    std::vector<NodeId> sources;
    for (std::uint64_t x = 0; x < n; x += stride) sources.push_back(static_cast<NodeId>(x));
    if (sources.back() != n - 1) sources.push_back(static_cast<NodeId>(n - 1));
    BfsWorkspace ws;
    std::vector<std::uint32_t> dist;
    for (const NodeId x : sources) {
      ws.distances(g, x, dist);
      for (NodeId y = 0; y < n; ++y) {
        ASSERT_EQ(debruijn_distance(params, x, y), dist[y]) << "h=" << h << " " << +x << "->" << +y;
      }
    }
  }
}

}  // namespace
}  // namespace ftdb
