// The paper's lemmas and theorem proofs as executable properties. These tests
// follow the paper's argument line by line, so a failure localizes exactly
// which step of the reproduction diverges.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "ft/ft_debruijn.hpp"
#include "ft/modmath.hpp"
#include "ft/reconfigure.hpp"
#include "topology/debruijn.hpp"
#include "topology/labels.hpp"

namespace ftdb {
namespace {

// Lemma 1: for a, b in T with a < b, delta_a = a - Rank(a,T) <= delta_b.
// Equivalently for the complement view used in reconfiguration: the monotone
// embedding's offsets are non-decreasing. We verify the literal statement.
TEST(Lemma1, RankDeficitMonotone) {
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    // Random finite T ⊂ [0, 60).
    std::vector<std::int64_t> t;
    for (std::int64_t v = 0; v < 60; ++v) {
      if (rng() % 3 == 0) t.push_back(v);
    }
    if (t.size() < 2) continue;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      const std::int64_t a = t[i];
      const std::int64_t b = t[i + 1];
      const auto delta_a = a - static_cast<std::int64_t>(ft::rank_in_sorted(a, t));
      const auto delta_b = b - static_cast<std::int64_t>(ft::rank_in_sorted(b, t));
      EXPECT_LE(delta_a, delta_b);
    }
  }
}

// Lemma 2: for every edge (x, y) of B_{2,h} with y = X(x,2,r,2^h):
// either x < y and y = 2x + r, or x > y and y = 2x + r - 2^h.
TEST(Lemma2, EveryEdgeWrapsAtMostOnce) {
  for (unsigned h = 3; h <= 8; ++h) {
    const std::int64_t n = static_cast<std::int64_t>(labels::ipow_checked(2, h));
    for (std::int64_t x = 0; x < n; ++x) {
      for (std::int64_t r = 0; r <= 1; ++r) {
        const std::int64_t y = ft::affine_mod(x, 2, r, n);
        if (y == x) continue;
        if (x < y) {
          EXPECT_EQ(y, 2 * x + r);
        } else {
          EXPECT_EQ(y, 2 * x + r - n);
        }
      }
    }
  }
}

// Lemma 3: in B_{m,h}, with y = m*x + r - t*m^h: x < y => t in {0..m-2};
// x > y => t in {1..m-1}.
TEST(Lemma3, WrapCountRanges) {
  for (std::int64_t m = 2; m <= 6; ++m) {
    for (unsigned h = 2; h <= 4; ++h) {
      const std::int64_t n = static_cast<std::int64_t>(labels::ipow_checked(m, h));
      for (std::int64_t x = 0; x < n; ++x) {
        for (std::int64_t r = 0; r < m; ++r) {
          const std::int64_t y = ft::affine_mod(x, m, r, n);
          if (y == x) continue;
          const std::int64_t t = ft::wrap_count(x, m, r, n);
          if (x < y) {
            EXPECT_GE(t, 0);
            EXPECT_LE(t, m - 2);
          } else {
            EXPECT_GE(t, 1);
            EXPECT_LE(t, m - 1);
          }
        }
      }
    }
  }
}

// Theorem 1's case analysis, replayed literally: for every fault set and every
// edge (x,y) of B_{2,h} with y = X(x,2,r,2^h), the offset
// s = r + delta_y - 2*delta_x (case x < y) or s = r + delta_y - 2*delta_x + k
// (case x > y) lies in S = {-k..k+1} and phi(y) = X(phi(x), 2, s, 2^h + k).
TEST(Theorem1, OffsetAlgebraExactlyAsInProof) {
  const std::int64_t n = 16;  // B_{2,4}
  for (unsigned k = 1; k <= 3; ++k) {
    const std::int64_t s_mod = n + k;
    SplitMix64 rng(k);
    for (int trial = 0; trial < 300; ++trial) {
      const FaultSet faults = FaultSet::random(static_cast<std::size_t>(s_mod), k, rng);
      const auto phi = monotone_embedding(faults);
      const auto delta = embedding_offsets(phi);
      for (std::int64_t x = 0; x < n; ++x) {
        for (std::int64_t r = 0; r <= 1; ++r) {
          const std::int64_t y = ft::affine_mod(x, 2, r, n);
          if (y == x) continue;
          const std::int64_t dx = delta[static_cast<std::size_t>(x)];
          const std::int64_t dy = delta[static_cast<std::size_t>(y)];
          std::int64_t s = 0;
          if (x < y) {
            s = r + dy - 2 * dx;
          } else {
            s = r + dy - 2 * dx + static_cast<std::int64_t>(k);
          }
          EXPECT_GE(s, -static_cast<std::int64_t>(k));
          EXPECT_LE(s, static_cast<std::int64_t>(k) + 1);
          EXPECT_EQ(static_cast<std::int64_t>(phi[static_cast<std::size_t>(y)]),
                    ft::affine_mod(phi[static_cast<std::size_t>(x)], 2, s, s_mod));
        }
      }
    }
  }
}

// Theorem 2's offset algebra for general m: s = kt + r + delta_y - m*delta_x
// lies in {(m-1)(-k) .. (m-1)(k+1)} and phi(y) = X(phi(x), m, s, m^h + k).
TEST(Theorem2, OffsetAlgebraExactlyAsInProof) {
  for (std::int64_t m : {3, 4}) {
    const unsigned h = 3;
    const std::int64_t n = static_cast<std::int64_t>(labels::ipow_checked(m, h));
    for (unsigned k = 1; k <= 2; ++k) {
      const std::int64_t s_mod = n + k;
      SplitMix64 rng(static_cast<std::uint64_t>(m * 100 + k));
      for (int trial = 0; trial < 100; ++trial) {
        const FaultSet faults = FaultSet::random(static_cast<std::size_t>(s_mod), k, rng);
        const auto phi = monotone_embedding(faults);
        const auto delta = embedding_offsets(phi);
        for (std::int64_t x = 0; x < n; ++x) {
          for (std::int64_t r = 0; r < m; ++r) {
            const std::int64_t y = ft::affine_mod(x, m, r, n);
            if (y == x) continue;
            const std::int64_t t = ft::wrap_count(x, m, r, n);
            const std::int64_t dx = delta[static_cast<std::size_t>(x)];
            const std::int64_t dy = delta[static_cast<std::size_t>(y)];
            const std::int64_t s = static_cast<std::int64_t>(k) * t + r + dy - m * dx;
            EXPECT_GE(s, (m - 1) * -static_cast<std::int64_t>(k));
            EXPECT_LE(s, (m - 1) * (static_cast<std::int64_t>(k) + 1));
            EXPECT_EQ(static_cast<std::int64_t>(phi[static_cast<std::size_t>(y)]),
                      ft::affine_mod(phi[static_cast<std::size_t>(x)], m, s, s_mod));
          }
        }
      }
    }
  }
}

// The degree argument of Section III.A: node a of B^k_{2,h} is adjacent to at
// most 2k+2 forward-block nodes and at most k+1 halving-block nodes in each
// direction, totaling <= 4k+4 — cross-checked against the generated graph.
TEST(DegreeArgument, ForwardBlockIs2kPlus2Wide) {
  const unsigned h = 5;
  for (unsigned k = 0; k <= 4; ++k) {
    const Graph g = ft_debruijn_base2(h, k);
    const std::int64_t s = static_cast<std::int64_t>(g.num_nodes());
    for (std::int64_t a = 0; a < s; ++a) {
      // Forward neighbors: X(a,2,r,s) for r in [-k, k+1] — at most 2k+2
      // distinct values.
      std::set<std::int64_t> forward;
      for (std::int64_t r = -static_cast<std::int64_t>(k);
           r <= static_cast<std::int64_t>(k) + 1; ++r) {
        forward.insert(ft::affine_mod(a, 2, r, s));
      }
      EXPECT_LE(forward.size(), 2u * k + 2);
      // Every neighbor of a in the graph is either in a's forward block or
      // has a in its own forward block.
      for (NodeId b : g.neighbors(static_cast<NodeId>(a))) {
        bool explained = forward.count(b) > 0;
        if (!explained) {
          for (std::int64_t r = -static_cast<std::int64_t>(k);
               r <= static_cast<std::int64_t>(k) + 1 && !explained; ++r) {
            explained = ft::affine_mod(b, 2, r, s) == a;
          }
        }
        EXPECT_TRUE(explained) << "a=" << a << " b=" << +b;
      }
    }
  }
}

}  // namespace
}  // namespace ftdb
