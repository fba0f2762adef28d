// Tests for embedding quality metrics (dilation / congestion / expansion).
#include <gtest/gtest.h>


#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/reconfigure.hpp"
#include "graph/embedding_metrics.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb {
namespace {

TEST(MeasureEmbedding, IdentityOnSameGraph) {
  const Graph g = debruijn_base2(3);
  const auto metrics = measure_embedding(g, g, identity_embedding(g.num_nodes()));
  EXPECT_EQ(metrics.dilation, 1u);
  EXPECT_EQ(metrics.congestion, 1u);
  EXPECT_DOUBLE_EQ(metrics.expansion, 1.0);
  EXPECT_EQ(metrics.broken_edges, 0u);
  EXPECT_DOUBLE_EQ(metrics.average_dilation, 1.0);
}

TEST(MeasureEmbedding, RejectsNonInjective) {
  const Graph g = make_graph(2, {{0, 1}});
  EXPECT_THROW(measure_embedding(g, g, Embedding{0, 0}), std::invalid_argument);
  EXPECT_THROW(measure_embedding(g, g, Embedding{0}), std::invalid_argument);
  EXPECT_THROW(measure_embedding(g, g, Embedding{0, 5}), std::invalid_argument);
}

TEST(MeasureEmbedding, StretchedPath) {
  // Pattern edge (0,1) hosted at opposite ends of a 4-path: dilation 3.
  const Graph pattern = make_graph(2, {{0, 1}});
  const Graph host = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto metrics = measure_embedding(pattern, host, Embedding{0, 3});
  EXPECT_EQ(metrics.dilation, 3u);
  EXPECT_EQ(metrics.congestion, 1u);
  EXPECT_DOUBLE_EQ(metrics.expansion, 2.0);
}

TEST(MeasureEmbedding, BrokenEdgeCounted) {
  const Graph pattern = make_graph(2, {{0, 1}});
  const Graph host = make_graph(3, {{0, 1}});  // node 2 isolated
  const auto metrics = measure_embedding(pattern, host, Embedding{0, 2});
  EXPECT_EQ(metrics.broken_edges, 1u);
  EXPECT_EQ(metrics.dilation, 0u);
}

TEST(MeasureEmbedding, CongestionOnSharedHostEdge) {
  // Two pattern edges forced over the single host bridge 1-2.
  const Graph pattern = make_graph(4, {{0, 2}, {1, 3}});
  GraphBuilder b(6);
  // Two stars joined by a bridge: 0,1 attach to 4; 2,3 attach to 5; 4-5 bridge.
  b.add_edge(0, 4);
  b.add_edge(1, 4);
  b.add_edge(2, 5);
  b.add_edge(3, 5);
  b.add_edge(4, 5);
  const Graph host = b.build();
  const auto metrics = measure_embedding(pattern, host, Embedding{0, 1, 2, 3});
  EXPECT_EQ(metrics.dilation, 3u);    // 0-4-5-2
  EXPECT_EQ(metrics.congestion, 2u);  // both paths cross 4-5
}

TEST(MeasureEmbedding, ReconfigurationIsDilationOne) {
  // The paper's guarantee in metric form: the monotone embedding of the
  // target into the faulted FT graph has dilation 1 and congestion 1.
  const unsigned h = 5;
  const unsigned k = 3;
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, k);
  SplitMix64 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const FaultSet faults = FaultSet::random(ft.num_nodes(), k, rng);
    const auto phi = monotone_embedding(faults);
    Embedding restricted(phi.begin(), phi.begin() + static_cast<std::ptrdiff_t>(target.num_nodes()));
    const auto metrics = measure_embedding(target, ft, restricted);
    EXPECT_EQ(metrics.dilation, 1u) << "trial " << trial;
    EXPECT_EQ(metrics.congestion, 1u);
    EXPECT_EQ(metrics.broken_edges, 0u);
  }
}

TEST(MeasureEmbedding, SeIntoDeBruijnIsDilationOne) {
  const unsigned h = 4;
  const auto sigma = find_se_in_debruijn(h);
  ASSERT_TRUE(sigma.has_value());
  const auto metrics =
      measure_embedding(shuffle_exchange_graph(h), debruijn_base2(h), *sigma);
  EXPECT_EQ(metrics.dilation, 1u);
  EXPECT_EQ(metrics.congestion, 1u);
  EXPECT_DOUBLE_EQ(metrics.expansion, 1.0);
}

TEST(MeasureEmbedding, NoSparesStrategyStretches) {
  // Contrast experiment: map the target monotonically into the *bare* target
  // with a fault (no spares, survivors only) — edges must stretch or break,
  // which is exactly why spares matter.
  const unsigned h = 4;
  const Graph target = debruijn_base2(h);
  // Remove node 5: embed the 15-node prefix of the target into survivors.
  // Build the "pattern" as the subgraph induced on the first 15 logical nodes.
  GraphBuilder pb(15);
  for (const Edge& e : target.edges()) {
    if (e.u < 15 && e.v < 15) pb.add_edge(e.u, e.v);
  }
  const Graph pattern = pb.build();
  // Monotone map into survivors of the faulted target.
  Embedding phi(15);
  for (NodeId x = 0; x < 15; ++x) phi[x] = x < 5 ? x : x + 1;
  const auto metrics = measure_embedding(pattern, target, phi);
  EXPECT_GT(metrics.dilation, 1u);  // some edge stretched
}

}  // namespace
}  // namespace ftdb
