// Tests for routing: BFS tables, de Bruijn shift routing and shuffle-exchange
// routing.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "sim/router.hpp"
#include "sim/routing.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {
namespace {

TEST(RoutingTable, PathsAreShortest) {
  const Graph g = debruijn_base2(4);
  const TableRouter table(g);
  for (NodeId s = 0; s < 16; ++s) {
    const auto dist = bfs_distances(g, s);
    for (NodeId d = 0; d < 16; ++d) {
      EXPECT_EQ(table.distance(d, s), dist[d]) << "s=" << +s << " d=" << +d;
      const auto path = table.path(s, d);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.size() - 1, dist[d]);
      EXPECT_TRUE(route_is_walk(g, path, s, d));
    }
  }
}

TEST(RoutingTable, UnreachableReported) {
  const Graph g = make_graph(4, {{0, 1}, {2, 3}});
  const TableRouter table(g);
  EXPECT_FALSE(table.reachable(2, 0));
  EXPECT_TRUE(table.path(0, 2).empty());
  EXPECT_TRUE(table.reachable(1, 0));
}

TEST(RoutingTable, SelfPath) {
  const Graph g = debruijn_base2(3);
  const TableRouter table(g);
  const auto path = table.path(5, 5);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 5u);
}

class ShiftRouteTest : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>> {};

TEST_P(ShiftRouteTest, AllPairsValidAndAtMostHHops) {
  const auto [m, h] = GetParam();
  const Graph g = debruijn_graph({.base = m, .digits = h});
  const std::uint64_t n = g.num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      const auto route = debruijn_shift_route(m, h, s, d);
      EXPECT_TRUE(route_is_walk(g, route, s, d)) << "s=" << +s << " d=" << +d;
      EXPECT_LE(route.size(), h + 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShiftRouteTest,
                         ::testing::Values(std::pair<std::uint64_t, unsigned>{2, 3},
                                           std::pair<std::uint64_t, unsigned>{2, 5},
                                           std::pair<std::uint64_t, unsigned>{3, 3},
                                           std::pair<std::uint64_t, unsigned>{4, 2}));

TEST(ShiftRoute, OverlapShortensRoute) {
  // src = 0b0011, dst = 0b1100: the low 2 bits of src (11) equal the high 2
  // bits of dst, so only 2 digits need shifting: route length 2.
  const auto route = debruijn_shift_route(2, 4, 0b0011, 0b1100);
  EXPECT_EQ(route.size(), 3u);  // 2 hops
}

TEST(ShiftRoute, SelfRouteIsTrivial) {
  const auto route = debruijn_shift_route(2, 4, 9, 9);
  ASSERT_EQ(route.size(), 1u);
  EXPECT_EQ(route[0], 9u);
}

TEST(ShiftRoute, OutOfRangeThrows) {
  EXPECT_THROW(debruijn_shift_route(2, 3, 8, 0), std::out_of_range);
}

TEST(ShiftRoute, NeverLongerThanShortestPathPlusSlack) {
  // The shift route is within h of optimal by construction; sanity-check it
  // is never absurdly long vs BFS.
  const Graph g = debruijn_base2(5);
  for (NodeId s = 0; s < 32; s += 3) {
    const auto dist = bfs_distances(g, s);
    for (NodeId d = 0; d < 32; d += 5) {
      const auto route = debruijn_shift_route(2, 5, s, d);
      EXPECT_LE(route.size() - 1, static_cast<std::size_t>(dist[d]) + 5);
    }
  }
}

class SeRouteTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SeRouteTest, AllPairsValidAndAtMost2hHops) {
  const unsigned h = GetParam();
  const Graph g = shuffle_exchange_graph(h);
  const std::uint64_t n = g.num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      const auto route = shuffle_exchange_route(h, s, d);
      EXPECT_TRUE(route_is_walk(g, route, s, d)) << "s=" << +s << " d=" << +d;
      EXPECT_LE(route.size(), 2u * h + 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SeRouteTest, ::testing::Values(2, 3, 4, 5, 6));

TEST(SeRoute, OutOfRangeThrows) {
  EXPECT_THROW(shuffle_exchange_route(3, 0, 9), std::out_of_range);
}

TEST(RouteIsWalk, RejectsBadRoutes) {
  const Graph g = debruijn_base2(3);
  EXPECT_FALSE(route_is_walk(g, {}, 0, 1));
  EXPECT_FALSE(route_is_walk(g, {0, 1}, 0, 2));     // wrong endpoint
  EXPECT_FALSE(route_is_walk(g, {0, 5, 1}, 0, 1));  // 0-5 not an edge
}

}  // namespace
}  // namespace ftdb::sim
