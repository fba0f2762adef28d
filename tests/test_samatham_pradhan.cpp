// Tests for the Samatham–Pradhan baseline: the published size/degree figures
// used in the paper's Section I comparison, and the verifiable digit-copies
// construction.
#include <gtest/gtest.h>

#include "ft/samatham_pradhan.hpp"
#include "ft/tolerance.hpp"
#include "graph/embedding.hpp"
#include "topology/debruijn.hpp"
#include "topology/labels.hpp"

namespace ftdb {
namespace {

TEST(SpFormulas, Base2Figures) {
  // N^{log2(2k+1)} = (2k+1)^h and degree 4k+2.
  EXPECT_EQ(sp_num_nodes(2, 4, 1), 81u);     // 3^4
  EXPECT_EQ(sp_num_nodes(2, 4, 2), 625u);    // 5^4
  EXPECT_EQ(sp_degree(2, 1), 6u);
  EXPECT_EQ(sp_degree(2, 3), 14u);
}

TEST(SpFormulas, BaseMFigures) {
  EXPECT_EQ(sp_num_nodes(3, 3, 1), 64u);     // (3*1+1)^3
  EXPECT_EQ(sp_degree(3, 2), 14u);           // 2*3*2+2
}

TEST(SpFormulas, OursUsesFarFewerNodes) {
  // The paper's headline comparison: N+k vs N^{log2(2k+1)}.
  for (unsigned h = 3; h <= 8; ++h) {
    const std::uint64_t n = labels::ipow_checked(2, h);
    for (unsigned k = 1; k <= 4; ++k) {
      EXPECT_LT(n + k, sp_num_nodes(2, h, k)) << "h=" << h << " k=" << k;
    }
  }
}

TEST(SpFormulas, OursDegreeOnlySlightlyLarger) {
  // 4k+4 vs 4k+2: exactly 2 more.
  for (unsigned k = 1; k <= 6; ++k) {
    EXPECT_EQ((4u * k + 4) - sp_degree(2, k), 2u);
  }
}

TEST(DigitCopies, NodeCountAndDegree) {
  EXPECT_EQ(digit_copies_num_nodes(2, 3, 1), 64u);  // (2*2)^3
  const Graph g = digit_copies_graph(2, 3, 1);
  EXPECT_EQ(g.num_nodes(), 64u);
  EXPECT_LE(g.max_degree(), digit_copies_degree_bound(2, 1));
}

TEST(DigitCopies, EmbeddingsAreValidAndDisjoint) {
  const std::uint64_t m = 2;
  const unsigned h = 3;
  const unsigned k = 2;
  const Graph target = debruijn_graph({.base = m, .digits = h});
  const Graph big = digit_copies_graph(m, h, k);
  std::vector<bool> used(big.num_nodes(), false);
  for (unsigned c = 0; c <= k; ++c) {
    const Embedding phi = digit_copies_embedding(m, h, k, c);
    EXPECT_TRUE(is_valid_embedding(target, big, phi)) << "copy " << c;
    for (NodeId image : phi) {
      EXPECT_FALSE(used[image]) << "copies overlap at " << image;
      used[image] = true;
    }
  }
}

TEST(DigitCopies, BadCopyIndexThrows) {
  EXPECT_THROW(digit_copies_embedding(2, 3, 1, 2), std::out_of_range);
}

TEST(DigitCopies, ReconfigureAvoidsFaults) {
  const std::uint64_t m = 2;
  const unsigned h = 3;
  const unsigned k = 1;
  const Graph target = debruijn_graph({.base = m, .digits = h});
  const Graph big = digit_copies_graph(m, h, k);
  // Fault a node inside copy 0 (all digits in [0, m)): node 0.
  FaultSet faults(big.num_nodes(), {0});
  const auto phi = digit_copies_reconfigure(m, h, k, faults);
  ASSERT_TRUE(phi.has_value());
  EXPECT_TRUE(is_valid_embedding(target, big, *phi));
  for (NodeId image : *phi) EXPECT_FALSE(faults.is_faulty(image));
}

TEST(DigitCopies, ToleratesAnyKFaults_Exhaustive) {
  // Every fault set of size k leaves some copy intact (pigeonhole over
  // disjoint copies) — verified exhaustively on a small instance.
  const std::uint64_t m = 2;
  const unsigned h = 2;
  const unsigned k = 1;
  const Graph target = debruijn_graph({.base = m, .digits = h});
  const Graph big = digit_copies_graph(m, h, k);
  bool all_ok = true;
  for_each_fault_set(big.num_nodes(), k, [&](const std::vector<NodeId>& subset) {
    const FaultSet faults(big.num_nodes(), subset);
    const auto phi = digit_copies_reconfigure(m, h, k, faults);
    if (!phi.has_value() || !is_valid_embedding(target, big, *phi)) {
      all_ok = false;
      return false;
    }
    for (NodeId image : *phi) {
      if (faults.is_faulty(image)) {
        all_ok = false;
        return false;
      }
    }
    return true;
  });
  EXPECT_TRUE(all_ok);
}

TEST(DigitCopies, MonteCarloLarger) {
  const std::uint64_t m = 2;
  const unsigned h = 3;
  const unsigned k = 2;
  const Graph target = debruijn_graph({.base = m, .digits = h});
  const Graph big = digit_copies_graph(m, h, k);
  SplitMix64 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const FaultSet faults = FaultSet::random(big.num_nodes(), k, rng);
    const auto phi = digit_copies_reconfigure(m, h, k, faults);
    ASSERT_TRUE(phi.has_value());
    EXPECT_TRUE(is_valid_embedding(target, big, *phi));
    for (NodeId image : *phi) EXPECT_FALSE(faults.is_faulty(image));
  }
}

TEST(DigitCopies, CostExplodesVersusOurs) {
  // The structural point of the comparison: redundancy-by-enlargement costs
  // multiplicatively, spares cost additively.
  const std::uint64_t n = labels::ipow_checked(2, 6);  // N = 64
  for (unsigned k = 1; k <= 3; ++k) {
    EXPECT_GT(digit_copies_num_nodes(2, 6, k), 8 * (n + k)) << "k=" << k;
  }
}

}  // namespace
}  // namespace ftdb
