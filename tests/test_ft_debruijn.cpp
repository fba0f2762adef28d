// Tests for the base-2 fault-tolerant de Bruijn construction B^k_{2,h}
// (Section III): structure, Corollaries 1-2, and Theorem 1 via the exhaustive
// and pairwise tolerance checks.
#include <gtest/gtest.h>

#include "ft/ft_debruijn.hpp"
#include "ft/tolerance.hpp"
#include "graph/algorithms.hpp"
#include "topology/debruijn.hpp"

namespace ftdb {
namespace {

TEST(FtDeBruijn, NodeCountIsNPlusK) {
  EXPECT_EQ(ft_debruijn_num_nodes({.base = 2, .digits = 4, .spares = 1}), 17u);
  EXPECT_EQ(ft_debruijn_num_nodes({.base = 2, .digits = 5, .spares = 3}), 35u);
  EXPECT_EQ(ft_debruijn_num_nodes({.base = 3, .digits = 3, .spares = 2}), 29u);
}

TEST(FtDeBruijn, OffsetRangeBase2) {
  // r in {-k, ..., k+1} for m = 2.
  const auto range = ft_debruijn_offsets({.base = 2, .digits = 4, .spares = 3});
  EXPECT_EQ(range.lo, -3);
  EXPECT_EQ(range.hi, 4);
}

TEST(FtDeBruijn, ZeroSparesDegeneratesToTarget) {
  // B^0_{2,h} == B_{2,h}: same modulus, offsets {0, 1}.
  for (unsigned h = 3; h <= 6; ++h) {
    EXPECT_TRUE(ft_debruijn_base2(h, 0).same_structure(debruijn_base2(h))) << "h=" << h;
  }
}

TEST(FtDeBruijn, Fig2_B124Structure) {
  // Paper Fig. 2: B^1_{2,4} has 17 nodes and degree at most 8.
  Graph g = ft_debruijn_base2(4, 1);
  EXPECT_EQ(g.num_nodes(), 17u);
  EXPECT_LE(g.max_degree(), 8u);
  // Corollary 2 is tight here: some node attains degree 8.
  EXPECT_EQ(g.max_degree(), 8u);
}

TEST(FtDeBruijn, NodeConnectedToBlockOf2kPlus2) {
  // "each node is connected to a block of 2k+2 consecutive nodes": node x's
  // forward neighbors are (2x - k .. 2x + k + 1) mod (2^h + k).
  const unsigned h = 4;
  const unsigned k = 2;
  Graph g = ft_debruijn_base2(h, k);
  const std::int64_t s = 18;
  for (std::int64_t x = 0; x < s; ++x) {
    for (std::int64_t c = -static_cast<std::int64_t>(k); c <= k + 1; ++c) {
      const std::int64_t y = ((2 * x + c) % s + s) % s;
      if (y != x) {
        EXPECT_TRUE(g.has_edge(static_cast<NodeId>(x), static_cast<NodeId>(y)))
            << "x=" << x << " y=" << y;
      }
    }
  }
}

class FtDeBruijnDegree : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(FtDeBruijnDegree, Corollary1_DegreeAtMost4kPlus4) {
  const auto [h, k] = GetParam();
  Graph g = ft_debruijn_base2(h, k);
  EXPECT_LE(g.max_degree(), 4u * k + 4) << "h=" << h << " k=" << k;
}

TEST_P(FtDeBruijnDegree, Connected) {
  const auto [h, k] = GetParam();
  EXPECT_TRUE(is_connected(ft_debruijn_base2(h, k)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FtDeBruijnDegree,
                         ::testing::Values(std::pair<unsigned, unsigned>{3, 0},
                                           std::pair<unsigned, unsigned>{3, 1},
                                           std::pair<unsigned, unsigned>{3, 2},
                                           std::pair<unsigned, unsigned>{4, 1},
                                           std::pair<unsigned, unsigned>{4, 3},
                                           std::pair<unsigned, unsigned>{5, 2},
                                           std::pair<unsigned, unsigned>{6, 4},
                                           std::pair<unsigned, unsigned>{7, 5},
                                           std::pair<unsigned, unsigned>{8, 2}));

// Theorem 1 exhaustively: every fault set of size exactly k is tolerated.
class FtDeBruijnTolerance : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(FtDeBruijnTolerance, Theorem1_Exhaustive) {
  const auto [h, k] = GetParam();
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, k);
  const auto report = check_tolerance_exhaustive(target, ft, k);
  EXPECT_TRUE(report.tolerant)
      << "counterexample faults: "
      << ::testing::PrintToString(report.counterexample_faults) << " violating target edge ("
      << report.violated_edge.u << "," << report.violated_edge.v << ")";
  EXPECT_EQ(report.fault_sets_checked, binomial(ft.num_nodes(), k));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FtDeBruijnTolerance,
                         ::testing::Values(std::pair<unsigned, unsigned>{3, 1},
                                           std::pair<unsigned, unsigned>{3, 2},
                                           std::pair<unsigned, unsigned>{3, 3},
                                           std::pair<unsigned, unsigned>{4, 1},
                                           std::pair<unsigned, unsigned>{4, 2},
                                           std::pair<unsigned, unsigned>{5, 1},
                                           std::pair<unsigned, unsigned>{5, 2},
                                           std::pair<unsigned, unsigned>{6, 1}));

TEST(FtDeBruijn, Theorem1_SmallerFaultSetsAlsoTolerated) {
  // The paper removes exactly k nodes; fewer faults are also fine because the
  // same offsets absorb smaller deltas. check_all_sizes covers 0..k.
  const auto report =
      check_tolerance_exhaustive(debruijn_base2(4), ft_debruijn_base2(4, 2), 2, true);
  EXPECT_TRUE(report.tolerant);
}

TEST(FtDeBruijn, PairwiseProofLargeInstances) {
  for (auto [h, k] : {std::pair<unsigned, unsigned>{8, 3}, {9, 2}, {10, 4}}) {
    const Graph target = debruijn_base2(h);
    const Graph ft = ft_debruijn_base2(h, k);
    const auto report = check_tolerance_pairwise(target, ft, k);
    EXPECT_TRUE(report.tolerant) << "h=" << h << " k=" << k;
  }
}

TEST(FtDeBruijn, TooManyFaultsCanBreak) {
  // k+1 faults must defeat some fault set (the construction is not (k+1)-
  // tolerant with only k spares: not enough survivors remain).
  const Graph target = debruijn_base2(3);
  const Graph ft = ft_debruijn_base2(3, 1);
  const auto report = check_tolerance_exhaustive(target, ft, 2);
  EXPECT_FALSE(report.tolerant);
}

TEST(FtDeBruijn, CustomOffsetsReproduceDefault) {
  const FtDeBruijnParams p{.base = 2, .digits = 4, .spares = 2};
  Graph a = ft_debruijn_graph(p);
  Graph b = ft_debruijn_graph_custom_offsets(2, 4, 2, ft_debruijn_offsets(p));
  EXPECT_TRUE(a.same_structure(b));
}

TEST(FtDeBruijn, AblationNarrowerOffsetsBreakTolerance) {
  // Shrinking the offset interval below the paper's range must break
  // Theorem 1 — evidence the edge set is not padded.
  const unsigned h = 4;
  const unsigned k = 2;
  const Graph target = debruijn_base2(h);
  Graph narrowed = ft_debruijn_graph_custom_offsets(2, h, k, OffsetRange{-(int)k + 1, (int)k + 1});
  const auto report = check_tolerance_exhaustive(target, narrowed, k);
  EXPECT_FALSE(report.tolerant);
}

TEST(FtDeBruijn, DegreeBoundFormula) {
  EXPECT_EQ(ft_debruijn_degree_bound({.base = 2, .digits = 5, .spares = 3}), 16u);
  EXPECT_EQ(ft_debruijn_degree_bound({.base = 3, .digits = 4, .spares = 2}), 22u);
  EXPECT_EQ(ft_debruijn_degree_bound({.base = 4, .digits = 3, .spares = 1}), 20u);
}

}  // namespace
}  // namespace ftdb
