// Exactness tests for GraphBuilder::from_offset_intervals, the row builder
// behind B^k_{m,h}, B_{m,h} and the natural SE^k_h: its CSR must be
// byte-identical to GraphBuilder::build_reference() over the algebraic edge
// list (x joined to X(x, m, r, s) for r in [lo, hi], plus the band
// {x, x + e} for e in [1, band]) on every shape the constructions take, on
// the degenerate shapes with m >= s, on shrunken and over-wide ranges, and
// on ranges far from zero. Empty ranges are a typed error.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/modmath.hpp"
#include "graph/graph.hpp"
#include "topology/debruijn.hpp"
#include "topology/labels.hpp"

namespace ftdb {
namespace {

Graph reference_rows(std::uint64_t n, std::uint64_t m, std::int64_t lo, std::int64_t hi,
                     std::int64_t band = 0) {
  const auto s = static_cast<std::int64_t>(n);
  GraphBuilder b(n);
  for (std::int64_t x = 0; x < s; ++x) {
    for (std::int64_t r = lo; r <= hi; ++r) {
      b.add_edge(static_cast<NodeId>(x), static_cast<NodeId>(ft::affine_mod(
                                             x, static_cast<std::int64_t>(m), r, s)));
    }
    for (std::int64_t e = 1; e <= band && x + e < s; ++e) {
      b.add_edge(static_cast<NodeId>(x), static_cast<NodeId>(x + e));
    }
  }
  return b.build_reference();
}

void expect_identical(const Graph& fast, const Graph& reference, const std::string& shape) {
  ASSERT_EQ(fast.num_nodes(), reference.num_nodes()) << shape;
  ASSERT_EQ(fast.num_edges(), reference.num_edges()) << shape;
  // same_structure compares the raw offsets and adjacency arrays.
  EXPECT_TRUE(fast.same_structure(reference)) << shape;
}

std::string shape_name(std::uint64_t m, unsigned h, unsigned k, std::int64_t lo, std::int64_t hi) {
  return "m=" + std::to_string(m) + " h=" + std::to_string(h) + " k=" + std::to_string(k) +
         " offsets [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

void expect_debruijn_rows(std::uint64_t m, unsigned h, unsigned k, OffsetRange offsets) {
  const std::uint64_t n = labels::ipow_checked(m, h) + k;
  expect_identical(ft_debruijn_graph_custom_offsets(m, h, k, offsets),
                   reference_rows(n, m, offsets.lo, offsets.hi),
                   shape_name(m, h, k, offsets.lo, offsets.hi));
}

TEST(OffsetRows, FtDeBruijnMatchesReferenceOnEveryPaperShape) {
  for (std::uint64_t m = 2; m <= 5; ++m) {
    for (unsigned h = 1; labels::ipow_checked(m, h) <= 20000; ++h) {
      for (unsigned k = 0; k <= 9; ++k) {
        expect_debruijn_rows(m, h, k, ft_debruijn_offsets({.base = m, .digits = h, .spares = k}));
      }
    }
  }
}

TEST(OffsetRows, DeBruijnTargetMatchesReference) {
  for (std::uint64_t m = 2; m <= 5; ++m) {
    for (unsigned h = 1; labels::ipow_checked(m, h) <= 20000; ++h) {
      const std::uint64_t n = labels::ipow_checked(m, h);
      expect_identical(debruijn_graph({.base = static_cast<std::uint32_t>(m), .digits = h}),
                       reference_rows(n, m, 0, static_cast<std::int64_t>(m) - 1),
                       shape_name(m, h, 0, 0, static_cast<std::int64_t>(m) - 1));
    }
  }
}

TEST(OffsetRows, DegenerateShapesWithBaseAtLeastNodeCount) {
  // m^h + k <= m: h = 0 (s = 1 + k) and h = 1 with k = 0 (s = m), under the
  // paper's range and under narrow ranges that leave the graph incomplete.
  for (std::uint64_t m = 2; m <= 7; ++m) {
    for (unsigned k = 0; k + 1 <= m; ++k) {
      expect_debruijn_rows(m, 0, k, ft_debruijn_offsets({.base = m, .digits = 0, .spares = k}));
      for (std::int64_t lo = -3; lo <= 3; ++lo) {
        for (std::int64_t hi = lo; hi <= lo + 2; ++hi) expect_debruijn_rows(m, 0, k, {lo, hi});
      }
    }
    expect_debruijn_rows(m, 1, 0, ft_debruijn_offsets({.base = m, .digits = 1, .spares = 0}));
    expect_debruijn_rows(m, 1, 0, {0, 0});
    expect_debruijn_rows(m, 1, 0, {-1, 1});
  }
}

TEST(OffsetRows, ShrunkenRangesOfTheAblationBench) {
  struct Case {
    std::uint64_t m;
    unsigned h;
    unsigned k;
  };
  for (const Case c : {Case{2, 4, 1}, Case{2, 4, 2}, Case{2, 5, 2}, Case{3, 3, 1},
                       Case{3, 3, 2}}) {
    const OffsetRange full = ft_debruijn_offsets({.base = c.m, .digits = c.h, .spares = c.k});
    for (const OffsetRange range : {full, OffsetRange{full.lo + 1, full.hi},
                                    OffsetRange{full.lo, full.hi - 1},
                                    OffsetRange{full.lo + 1, full.hi - 1}}) {
      expect_debruijn_rows(c.m, c.h, c.k, range);
    }
  }
}

TEST(OffsetRows, RangesWiderThanOrFarFromTheNodeCount) {
  // s = 2^3 + 1 = 9: widths s - 1, s and 2s + 3, and narrow ranges whose
  // ends sit several multiples of s away from zero on either side.
  for (const OffsetRange range :
       {OffsetRange{-4, 3}, OffsetRange{-4, 4}, OffsetRange{-10, 10}, OffsetRange{0, 200},
        OffsetRange{-1000, -995}, OffsetRange{1000, 1004}, OffsetRange{-31, -23},
        OffsetRange{17, 25}}) {
    expect_debruijn_rows(2, 3, 1, range);
    expect_debruijn_rows(3, 2, 4, range);
  }
}

TEST(OffsetRows, NaturalShuffleExchangeMatchesReference) {
  for (unsigned h = 1; h <= 12; ++h) {
    for (unsigned k = 0; k <= 9; ++k) {
      const std::uint64_t n = labels::ipow_checked(2, h) + k;
      const auto kk = static_cast<std::int64_t>(k);
      for (const SeOffsets offsets :
           {ft_se_natural_offsets(k), SeOffsets{-kk + 1, kk + 1, kk + 1},
            SeOffsets{-kk, kk, kk}, SeOffsets{-kk, kk + 1, 0}, SeOffsets{-kk, kk + 1, kk + 4}}) {
        expect_identical(ft_se_natural_graph_custom(h, k, offsets),
                         reference_rows(n, 2, offsets.shuffle_lo, offsets.shuffle_hi,
                                        offsets.exchange_hi),
                         shape_name(2, h, k, offsets.shuffle_lo, offsets.shuffle_hi) +
                             " band " + std::to_string(offsets.exchange_hi));
      }
    }
  }
}

TEST(OffsetRows, TinyNodeCounts) {
  EXPECT_EQ(GraphBuilder::from_offset_intervals(0, 2, 0, 1).num_nodes(), 0u);
  for (std::uint64_t n = 1; n <= 3; ++n) {
    for (std::uint64_t m = 1; m <= 4; ++m) {
      expect_identical(GraphBuilder::from_offset_intervals(n, m, -1, 1, 1),
                       reference_rows(n, m, -1, 1, 1),
                       "n=" + std::to_string(n) + " m=" + std::to_string(m));
    }
  }
}

void expect_invalid(const auto& build, const std::string& names) {
  try {
    build();
    ADD_FAILURE() << "no exception for " << names;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(names), std::string::npos) << e.what();
  }
}

TEST(OffsetRows, EmptyOffsetRangeIsInvalidArgument) {
  expect_invalid([] { return ft_debruijn_graph_custom_offsets(2, 4, 1, {3, 1}); }, "[3, 1]");
}

TEST(OffsetRows, EmptyShuffleRangeIsInvalidArgument) {
  expect_invalid([] { return ft_se_natural_graph_custom(4, 1, {3, 1, 0}); }, "[3, 1]");
}

TEST(OffsetRows, NegativeExchangeBandIsInvalidArgument) {
  expect_invalid([] { return ft_se_natural_graph_custom(4, 1, {0, 1, -3}); }, "[1, -3]");
}

}  // namespace
}  // namespace ftdb
