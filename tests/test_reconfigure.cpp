// Tests for the reconfiguration algorithm of Section III.A: the monotone rank
// embedding and its offset properties (Lemma 1).
#include <gtest/gtest.h>


#include "ft/reconfigure.hpp"

namespace ftdb {
namespace {

TEST(FaultSet, NormalizesInput) {
  FaultSet f(10, {7, 3, 3, 7, 1});
  EXPECT_EQ(f.count(), 3u);
  EXPECT_EQ(f.nodes(), (std::vector<NodeId>{1, 3, 7}));
  EXPECT_TRUE(f.is_faulty(3));
  EXPECT_FALSE(f.is_faulty(2));
}

TEST(FaultSet, OutOfRangeThrows) { EXPECT_THROW(FaultSet(5, {5}), std::out_of_range); }

TEST(FaultSet, SurvivorsComplement) {
  FaultSet f(6, {0, 4});
  EXPECT_EQ(f.survivors(), (std::vector<NodeId>{1, 2, 3, 5}));
}

TEST(FaultSet, RandomIsUniformSample) {
  SplitMix64 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    FaultSet f = FaultSet::random(20, 5, rng);
    EXPECT_EQ(f.count(), 5u);
    for (NodeId v : f.nodes()) EXPECT_LT(v, 20u);
  }
}

TEST(FaultSet, RandomTooManyThrows) {
  SplitMix64 rng(1);
  EXPECT_THROW(FaultSet::random(3, 4, rng), std::invalid_argument);
}

TEST(MonotoneEmbedding, PaperExample) {
  // "node 0 is mapped to the first nonfaulty node, and node 2^h - 1 to the
  // last nonfaulty node."
  FaultSet f(17, {8});
  auto phi = monotone_embedding(f);
  ASSERT_EQ(phi.size(), 16u);
  EXPECT_EQ(phi.front(), 0u);
  EXPECT_EQ(phi.back(), 16u);
  EXPECT_EQ(phi[7], 7u);
  EXPECT_EQ(phi[8], 9u);  // skips the fault
}

TEST(MonotoneEmbedding, StrictlyIncreasing) {
  FaultSet f(30, {2, 9, 15, 16, 29});
  auto phi = monotone_embedding(f);
  for (std::size_t i = 0; i + 1 < phi.size(); ++i) EXPECT_LT(phi[i], phi[i + 1]);
}

TEST(EmbeddingOffsets, Lemma1_NonDecreasingAndBounded) {
  // Lemma 1 in executable form: delta(x) = phi(x) - x is non-decreasing and
  // 0 <= delta(x) <= k for every fault set.
  SplitMix64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t universe = 40;
    const std::size_t k = static_cast<std::size_t>(trial % 6);
    FaultSet f = FaultSet::random(universe, k, rng);
    auto delta = embedding_offsets(monotone_embedding(f));
    for (std::size_t x = 0; x < delta.size(); ++x) {
      EXPECT_LE(delta[x], k);
      if (x > 0) {
        EXPECT_GE(delta[x], delta[x - 1]);
      }
    }
  }
}

TEST(EmbeddingOffsets, DeltaCountsFaultsBelow) {
  // delta(x) equals the number of faulty nodes at positions <= phi(x).
  FaultSet f(12, {1, 5, 6});
  auto phi = monotone_embedding(f);
  auto delta = embedding_offsets(phi);
  for (std::size_t x = 0; x < phi.size(); ++x) {
    std::uint32_t below = 0;
    for (NodeId v : f.nodes()) {
      if (v < phi[x]) ++below;
    }
    EXPECT_EQ(delta[x], below);
  }
}

TEST(InverseEmbedding, RoundTrip) {
  FaultSet f(10, {0, 9});
  auto phi = monotone_embedding(f);
  auto inv = inverse_embedding(phi, 10);
  EXPECT_EQ(inv[0], kInvalidNode);
  EXPECT_EQ(inv[9], kInvalidNode);
  for (std::size_t x = 0; x < phi.size(); ++x) EXPECT_EQ(inv[phi[x]], x);
}

TEST(MonotoneEmbedding, NoFaultsIsIdentity) {
  FaultSet f(8, {});
  auto phi = monotone_embedding(f);
  for (std::size_t x = 0; x < 8; ++x) EXPECT_EQ(phi[x], x);
}

}  // namespace
}  // namespace ftdb
