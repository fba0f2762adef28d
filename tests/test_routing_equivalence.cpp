// Property test: the two routing mechanisms the simulator offers — de Bruijn
// shift-register routing (table-free, runs in logical space) and BFS next-hop
// table routing (general, shortest-path) — must both produce valid routes on
// every B_{m,h}, for all (m, h) in {2,3,4} x {2,3,4}.
//
// Checked per (src, dst) pair:
//   * the shift route is a walk of the graph from src to dst,
//   * its length never exceeds 2h (it is in fact <= h, the paper's bound,
//     which we also assert),
//   * the BFS table route is a walk whose length equals the BFS distance,
//   * BFS never beats the shift route's h-hop guarantee by being unreachable
//     (B_{m,h} is connected), and is never longer than the shift route.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/router.hpp"
#include "sim/routing.hpp"
#include "topology/debruijn.hpp"

namespace ftdb {
namespace {

struct Params {
  std::uint64_t m;
  unsigned h;
};

class RoutingEquivalence : public ::testing::TestWithParam<Params> {};

TEST_P(RoutingEquivalence, ShiftAndTableRoutesAgreeOnValidity) {
  const auto [m, h] = GetParam();
  const Graph g = debruijn_graph({.base = m, .digits = h});
  const std::size_t n = g.num_nodes();
  ASSERT_EQ(n, debruijn_num_nodes({.base = m, .digits = h}));

  const sim::TableRouter table(g);

  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      // Shift-register route: valid walk, bounded length.
      const std::vector<NodeId> shift = sim::debruijn_shift_route(m, h, src, dst);
      ASSERT_FALSE(shift.empty()) << "m=" << m << " h=" << h << " " << src << "->" << dst;
      EXPECT_TRUE(sim::route_is_walk(g, shift, src, dst))
          << "shift route invalid: m=" << m << " h=" << h << " " << src << "->" << dst;
      const std::size_t shift_hops = shift.size() - 1;
      EXPECT_LE(shift_hops, 2u * h)
          << "m=" << m << " h=" << h << " " << src << "->" << dst;
      EXPECT_LE(shift_hops, h) << "paper bound: m=" << m << " h=" << h << " " << src
                               << "->" << dst;

      // BFS table route: valid walk, length == BFS distance.
      ASSERT_TRUE(table.reachable(dst, src))
          << "B_{m,h} must be connected: m=" << m << " h=" << h;
      const std::vector<NodeId> bfs = table.path(src, dst);
      ASSERT_FALSE(bfs.empty());
      EXPECT_TRUE(sim::route_is_walk(g, bfs, src, dst))
          << "table route invalid: m=" << m << " h=" << h << " " << src << "->" << dst;
      EXPECT_EQ(bfs.size() - 1, table.distance(dst, src));

      // BFS is shortest, so it can never be longer than the shift route.
      EXPECT_LE(bfs.size(), shift.size())
          << "m=" << m << " h=" << h << " " << src << "->" << dst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSmallBases, RoutingEquivalence,
                         ::testing::Values(Params{2, 2}, Params{2, 3}, Params{2, 4},
                                           Params{3, 2}, Params{3, 3}, Params{3, 4},
                                           Params{4, 2}, Params{4, 3}, Params{4, 4}),
                         [](const ::testing::TestParamInfo<Params>& info) {
                           const std::string m = std::to_string(info.param.m);
                           return "m" + m + "_h" + std::to_string(info.param.h);
                         });

}  // namespace
}  // namespace ftdb
