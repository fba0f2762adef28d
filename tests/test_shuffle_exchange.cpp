// Tests for the shuffle-exchange target network SE_h.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <utility>

#include "graph/algorithms.hpp"
#include "stepper_protocol.hpp"
#include "topology/labels.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb {
namespace {

TEST(ShuffleExchange, NodeCount) {
  EXPECT_EQ(shuffle_exchange_num_nodes(3), 8u);
  EXPECT_EQ(shuffle_exchange_num_nodes(6), 64u);
  EXPECT_THROW(shuffle_exchange_num_nodes(0), std::invalid_argument);
}

TEST(ShuffleExchange, DegreeAtMostThree) {
  for (unsigned h = 2; h <= 8; ++h) {
    EXPECT_LE(shuffle_exchange_graph(h).max_degree(), 3u) << "h=" << h;
  }
}

TEST(ShuffleExchange, Connected) {
  for (unsigned h = 2; h <= 8; ++h) {
    EXPECT_TRUE(is_connected(shuffle_exchange_graph(h))) << "h=" << h;
  }
}

TEST(ShuffleExchange, CornerNodesDegreeOne) {
  // 0...0 and 1...1 have self-loop shuffles; only the exchange edge remains.
  Graph g = shuffle_exchange_graph(4);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(15), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(15, 14));
}

TEST(ShuffleExchange, EdgeSetFirstPrinciples) {
  const unsigned h = 4;
  const std::uint64_t n = 16;
  Graph g = shuffle_exchange_graph(h);
  for (std::uint64_t x = 0; x < n; ++x) {
    for (std::uint64_t y = x + 1; y < n; ++y) {
      const bool shuffle = labels::rotate_left(x, 2, h) == y || labels::rotate_left(y, 2, h) == x;
      const bool exchange = (x ^ y) == 1;
      EXPECT_EQ(g.has_edge(static_cast<NodeId>(x), static_cast<NodeId>(y)), shuffle || exchange)
          << "x=" << x << " y=" << y;
    }
  }
}

TEST(ShuffleExchange, NeighborFunctions) {
  const unsigned h = 3;
  EXPECT_EQ(se_shuffle(0b011, h), 0b110u);
  EXPECT_EQ(se_unshuffle(0b110, h), 0b011u);
  EXPECT_EQ(se_exchange(0b110), 0b111u);
  for (NodeId x = 0; x < 8; ++x) {
    EXPECT_EQ(se_unshuffle(se_shuffle(x, h), h), x);
    EXPECT_EQ(se_exchange(se_exchange(x)), x);
  }
}

TEST(ShuffleExchangeDistance, MatchesBfsExhaustively) {
  // The rotation-tour formula must be hop-exact against BFS for every pair,
  // h = 1 (a single exchange edge) included.
  for (unsigned h = 1; h <= 7; ++h) {
    const Graph g = shuffle_exchange_graph(h);
    for (NodeId x = 0; x < g.num_nodes(); ++x) {
      const auto dist = bfs_distances(g, x);
      for (NodeId y = 0; y < g.num_nodes(); ++y) {
        EXPECT_EQ(shuffle_exchange_distance(h, x, y), dist[y])
            << "h=" << h << " " << +x << "->" << +y;
      }
    }
  }
}

TEST(ShuffleExchangeDistance, OutOfRangeThrows) {
  EXPECT_THROW(shuffle_exchange_distance(3, 8, 0), std::out_of_range);
}

TEST(ShuffleExchangeShape, RecognizedAndRejected) {
  for (unsigned h = 2; h <= 6; ++h) {
    const auto shape = shuffle_exchange_shape_of(shuffle_exchange_graph(h));
    ASSERT_TRUE(shape.has_value()) << "h=" << h;
    EXPECT_EQ(*shape, h);
  }
  // A cycle of SE size is not SE.
  EXPECT_FALSE(shuffle_exchange_shape_of(
                   make_graph(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}}))
                   .has_value());
}

TEST(ShuffleExchange, EdgeCountFormula) {
  // 2^{h-1} exchange edges + (2^h - number of rotation fixed points) shuffle
  // "arrows"; as an undirected simple graph the count is easier to verify
  // directly against the generator's own invariants.
  for (unsigned h = 3; h <= 6; ++h) {
    Graph g = shuffle_exchange_graph(h);
    std::size_t expected = 0;
    const std::uint64_t n = labels::ipow_checked(2, h);
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (std::uint64_t x = 0; x < n; ++x) {
      const std::uint64_t s = labels::rotate_left(x, 2, h);
      if (s != x) seen.insert({std::min(x, s), std::max(x, s)});
      seen.insert({std::min(x, x ^ 1), std::max(x, x ^ 1)});
    }
    expected = seen.size();
    EXPECT_EQ(g.num_edges(), expected) << "h=" << h;
  }
}


// --- the distance stepper's routing protocol ---

TEST(ShuffleExchange, StepperResetMatchesDistanceAllPairs) {
  // Exhaustive over SE_1..SE_7: the filtered, sort-free scan must equal the
  // canonical formula (itself BFS-verified) for every pair.
  for (unsigned h = 1; h <= 7; ++h) {
    const std::uint64_t n = shuffle_exchange_num_nodes(h);
    for (std::uint64_t y = 0; y < n; ++y) {
      ShuffleExchangeDistanceStepper stepper(h, static_cast<NodeId>(y));
      for (std::uint64_t x = 0; x < n; ++x) {
        const std::uint32_t want =
            shuffle_exchange_distance(h, static_cast<NodeId>(x), static_cast<NodeId>(y));
        EXPECT_EQ(stepper.reset(static_cast<NodeId>(x)), want)
            << "h=" << h << " x=" << x << " y=" << y;
        EXPECT_EQ(stepper.distance(), want);
        EXPECT_EQ(stepper.node(), static_cast<NodeId>(x));
      }
    }
  }
}

TEST(ShuffleExchange, StepperRandomWalkAgreesWithFormula) {
  // 10k seeded steps per shape, every neighbor probed at each.
  for (unsigned h : {5u, 8u, 10u}) {
    const std::uint64_t n = shuffle_exchange_num_nodes(h);
    std::mt19937_64 rng(31 * h);
    const auto dest = static_cast<NodeId>(rng() % n);
    ShuffleExchangeDistanceStepper stepper(h, dest);
    stepper_protocol::walk(stepper, static_cast<NodeId>(rng() % n), 10000, rng(),
                           [&](NodeId w) { return shuffle_exchange_distance(h, w, dest); });
    ASSERT_FALSE(HasFailure()) << "h=" << h;
  }
}

TEST(ShuffleExchange, StepperProbeRespectsCapAndExactness) {
  // probe() from freshly reset positions (opt mask collected lazily).
  const unsigned h = 9;
  const std::uint64_t n = shuffle_exchange_num_nodes(h);
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    const auto x = static_cast<NodeId>(rng() % n);
    const auto y = static_cast<NodeId>(rng() % n);
    ShuffleExchangeDistanceStepper stepper(h, y);
    stepper.reset(x);
    stepper_protocol::expect_probes_exact(
        stepper, [&](NodeId w) { return shuffle_exchange_distance(h, w, y); });
    ASSERT_FALSE(HasFailure()) << "x=" << x << " y=" << y;
  }
}

TEST(ShuffleExchange, NeighborsFixedMatchesVector) {
  // probe_neighbors, the router's fixed-array enumeration, lists exactly
  // shuffle_exchange_neighbors, in order.
  for (unsigned h = 1; h <= 6; ++h) {
    const std::uint64_t n = shuffle_exchange_num_nodes(h);
    ShuffleExchangeDistanceStepper stepper(h, 0);
    std::vector<NodeId> expected;
    for (std::uint64_t x = 0; x < n; ++x) {
      stepper.reset(static_cast<NodeId>(x));
      shuffle_exchange_neighbors(h, static_cast<NodeId>(x), expected);
      EXPECT_EQ(stepper_protocol::neighbor_ids(stepper), expected) << "h=" << h << " x=" << x;
    }
  }
}

}  // namespace
}  // namespace ftdb
