// Unit tests for embedding validation and the VF2 subgraph-monomorphism
// search used to realize SE_h ⊆ B_{2,h}.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/embedding.hpp"
#include "graph/graph.hpp"
#include "topology/debruijn.hpp"
#include "topology/hypercube.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb {
namespace {

Graph cycle_graph(std::size_t n) {
  GraphBuilder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  return b.build();
}

TEST(IsValidEmbedding, IdentityOnSubgraph) {
  Graph pattern = make_graph(3, {{0, 1}, {1, 2}});
  Graph host = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(is_valid_embedding(pattern, host, {0, 1, 2}));
}

TEST(IsValidEmbedding, RejectsNonInjective) {
  Graph pattern = make_graph(2, {{0, 1}});
  Graph host = make_graph(3, {{0, 1}});
  EXPECT_FALSE(is_valid_embedding(pattern, host, {0, 0}));
}

TEST(IsValidEmbedding, RejectsMissingEdge) {
  Graph pattern = make_graph(2, {{0, 1}});
  Graph host = make_graph(3, {{0, 1}});
  EXPECT_FALSE(is_valid_embedding(pattern, host, {0, 2}));
}

TEST(IsValidEmbedding, RejectsWrongSize) {
  Graph pattern = make_graph(2, {{0, 1}});
  Graph host = make_graph(3, {{0, 1}});
  EXPECT_FALSE(is_valid_embedding(pattern, host, {0}));
}

TEST(IsValidEmbedding, RejectsOutOfRangeImage) {
  Graph pattern = make_graph(1, {});
  Graph host = make_graph(1, {});
  EXPECT_FALSE(is_valid_embedding(pattern, host, {5}));
}

TEST(FindSubgraphEmbedding, TriangleInK4) {
  Graph triangle = make_graph(3, {{0, 1}, {1, 2}, {0, 2}});
  Graph k4 = make_graph(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  auto phi = find_subgraph_embedding(triangle, k4);
  ASSERT_TRUE(phi.has_value());
  EXPECT_TRUE(is_valid_embedding(triangle, k4, *phi));
}

TEST(FindSubgraphEmbedding, TriangleNotInBipartite) {
  Graph triangle = make_graph(3, {{0, 1}, {1, 2}, {0, 2}});
  Graph square = cycle_graph(4);
  EXPECT_FALSE(find_subgraph_embedding(triangle, square).has_value());
}

TEST(FindSubgraphEmbedding, PatternLargerThanHost) {
  Graph big = cycle_graph(5);
  Graph small = cycle_graph(4);
  EXPECT_FALSE(find_subgraph_embedding(big, small).has_value());
}

TEST(FindSubgraphEmbedding, EmptyPattern) {
  Graph empty = make_graph(0, {});
  Graph host = cycle_graph(3);
  auto phi = find_subgraph_embedding(empty, host);
  ASSERT_TRUE(phi.has_value());
  EXPECT_TRUE(phi->empty());
}

TEST(FindSubgraphEmbedding, DisconnectedPattern) {
  Graph pattern = make_graph(4, {{0, 1}, {2, 3}});
  Graph host = cycle_graph(6);
  auto phi = find_subgraph_embedding(pattern, host);
  ASSERT_TRUE(phi.has_value());
  EXPECT_TRUE(is_valid_embedding(pattern, host, *phi));
}

TEST(FindSubgraphEmbedding, HamiltonianCycleInHypercube) {
  // Q_3 is Hamiltonian: C_8 embeds.
  auto phi = find_subgraph_embedding(cycle_graph(8), hypercube_graph(3));
  ASSERT_TRUE(phi.has_value());
  EXPECT_TRUE(is_valid_embedding(cycle_graph(8), hypercube_graph(3), *phi));
}

TEST(FindSubgraphEmbedding, OddCycleNotInHypercube) {
  // Q_4 is bipartite, so C_7 cannot embed.
  EXPECT_FALSE(find_subgraph_embedding(cycle_graph(7), hypercube_graph(4)).has_value());
}

TEST(FindSubgraphEmbedding, StepBudgetAborts) {
  // An infeasible dense-in-sparse search with a tiny budget reports abort.
  Graph pattern = make_graph(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5},
                                 {1, 2}, {1, 3}, {1, 4}, {1, 5},
                                 {2, 3}, {2, 4}, {2, 5}, {3, 4}, {3, 5}, {4, 5}});
  Graph host = hypercube_graph(5);
  EmbeddingSearchOptions options;
  options.max_steps = 10;
  EmbeddingSearchStats stats;
  auto phi = find_subgraph_embedding(pattern, host, options, &stats);
  EXPECT_FALSE(phi.has_value());
  EXPECT_TRUE(stats.aborted || stats.steps <= 10);
}

TEST(Compose, AppliesInOrder) {
  Embedding f{2, 0, 1};
  Embedding g{10, 11, 12};
  EXPECT_EQ(compose(f, g), (Embedding{12, 10, 11}));
}

TEST(IdentityEmbedding, IsIdentity) {
  auto id = identity_embedding(4);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(id[i], i);
}

// The containment the paper's fault-tolerant shuffle-exchange rests on
// (Feldmann/Unger [7]): SE_h is a subgraph of B_{2,h} of the same size.
class SeInDeBruijnTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SeInDeBruijnTest, ShuffleExchangeEmbedsInDeBruijn) {
  const unsigned h = GetParam();
  const Graph se = shuffle_exchange_graph(h);
  const Graph db = debruijn_base2(h);
  ASSERT_EQ(se.num_nodes(), db.num_nodes());
  auto phi = find_subgraph_embedding(se, db);
  ASSERT_TRUE(phi.has_value()) << "no embedding found for h=" << h;
  EXPECT_TRUE(is_valid_embedding(se, db, *phi));
}

INSTANTIATE_TEST_SUITE_P(SmallH, SeInDeBruijnTest, ::testing::Values(3, 4, 5));

TEST(FindSubgraphEmbedding, SolvesSeSixWithinTheStepBudget) {
  // SE_6 into B_{2,6} (64 nodes), the largest containment the FT
  // shuffle-exchange construction asks for, stays well under a ceiling an
  // order of magnitude below the default 50M budget. (Measured 654,086
  // steps; step counts are deterministic, so the margin guards against
  // regressing the search order, not against host-machine noise.)
  const Graph se = shuffle_exchange_graph(6);
  const Graph db = debruijn_base2(6);
  EmbeddingSearchOptions options;
  options.max_steps = 5'000'000;
  EmbeddingSearchStats stats;
  const auto phi = find_subgraph_embedding(se, db, options, &stats);
  ASSERT_TRUE(phi.has_value());
  EXPECT_TRUE(is_valid_embedding(se, db, *phi));
  EXPECT_FALSE(stats.aborted);
  EXPECT_LE(stats.steps, options.max_steps);
}

TEST(FindSubgraphEmbedding, HonorsItsStepBudget) {
  // A feasible search cut off by its budget reports the abort and returns
  // nothing rather than a partial map.
  const Graph se = shuffle_exchange_graph(5);
  const Graph db = debruijn_base2(5);
  EmbeddingSearchOptions options;
  options.max_steps = 50;
  EmbeddingSearchStats stats;
  const auto phi = find_subgraph_embedding(se, db, options, &stats);
  EXPECT_FALSE(phi.has_value());
  EXPECT_TRUE(stats.aborted);
  EXPECT_EQ(stats.steps, options.max_steps + 1);  // the aborting step, nothing after it
}

}  // namespace
}  // namespace ftdb
