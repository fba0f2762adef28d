// Tests for the base-m fault-tolerant de Bruijn construction B^k_{m,h}
// (Section IV): Theorem 2 and Corollaries 3-4.
#include <gtest/gtest.h>

#include "ft/ft_debruijn.hpp"
#include "ft/tolerance.hpp"
#include "graph/algorithms.hpp"
#include "topology/debruijn.hpp"

namespace ftdb {
namespace {

struct BaseMCase {
  std::uint64_t m;
  unsigned h;
  unsigned k;
};

std::ostream& operator<<(std::ostream& os, const BaseMCase& c) {
  return os << "m=" << c.m << " h=" << c.h << " k=" << c.k;
}

TEST(FtDeBruijnBaseM, OffsetRange) {
  // r in { (m-1)(-k), ..., (m-1)(k+1) }.
  const auto range = ft_debruijn_offsets({.base = 4, .digits = 3, .spares = 2});
  EXPECT_EQ(range.lo, -6);
  EXPECT_EQ(range.hi, 9);
}

TEST(FtDeBruijnBaseM, ZeroSparesDegeneratesToTarget) {
  for (std::uint64_t m : {3ull, 4ull, 5ull}) {
    const Graph ft = ft_debruijn_graph({.base = m, .digits = 3, .spares = 0});
    const Graph target = debruijn_graph({.base = m, .digits = 3});
    EXPECT_TRUE(ft.same_structure(target)) << "m=" << m;
  }
}

class FtBaseMDegree : public ::testing::TestWithParam<BaseMCase> {};

TEST_P(FtBaseMDegree, Corollary3_DegreeBound) {
  const auto c = GetParam();
  const FtDeBruijnParams params{.base = c.m, .digits = c.h, .spares = c.k};
  const Graph g = ft_debruijn_graph(params);
  EXPECT_EQ(g.num_nodes(), ft_debruijn_num_nodes(params));
  EXPECT_LE(g.max_degree(), ft_debruijn_degree_bound(params)) << c;
}

TEST_P(FtBaseMDegree, Connected) {
  const auto c = GetParam();
  EXPECT_TRUE(is_connected(ft_debruijn_graph({.base = c.m, .digits = c.h, .spares = c.k})));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FtBaseMDegree,
                         ::testing::Values(BaseMCase{3, 3, 0}, BaseMCase{3, 3, 1},
                                           BaseMCase{3, 3, 2}, BaseMCase{3, 4, 2},
                                           BaseMCase{4, 3, 1}, BaseMCase{4, 3, 3},
                                           BaseMCase{5, 2, 1}, BaseMCase{5, 3, 2},
                                           BaseMCase{6, 2, 2}));

class FtBaseMTolerance : public ::testing::TestWithParam<BaseMCase> {};

TEST_P(FtBaseMTolerance, Theorem2_Exhaustive) {
  const auto c = GetParam();
  const Graph target = debruijn_graph({.base = c.m, .digits = c.h});
  const Graph ft = ft_debruijn_graph({.base = c.m, .digits = c.h, .spares = c.k});
  const auto report = check_tolerance_exhaustive(target, ft, c.k);
  EXPECT_TRUE(report.tolerant) << c << " counterexample: "
                               << ::testing::PrintToString(report.counterexample_faults);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FtBaseMTolerance,
                         ::testing::Values(BaseMCase{3, 3, 1}, BaseMCase{3, 3, 2},
                                           BaseMCase{4, 2, 1}, BaseMCase{4, 2, 2},
                                           BaseMCase{4, 3, 1}, BaseMCase{5, 2, 1},
                                           BaseMCase{5, 2, 2}, BaseMCase{6, 2, 1}));

TEST(FtDeBruijnBaseM, PairwiseProofLargerInstances) {
  for (auto c : {BaseMCase{3, 5, 2}, BaseMCase{4, 4, 3}, BaseMCase{5, 3, 2}}) {
    const Graph target = debruijn_graph({.base = c.m, .digits = c.h});
    const Graph ft = ft_debruijn_graph({.base = c.m, .digits = c.h, .spares = c.k});
    const auto report = check_tolerance_pairwise(target, ft, c.k);
    EXPECT_TRUE(report.tolerant) << c;
  }
}

TEST(FtDeBruijnBaseM, Corollary4_SingleFaultDegree6mMinus4) {
  // k = 1: degree at most 6m - 4.
  for (std::uint64_t m : {2ull, 3ull, 4ull, 5ull}) {
    const Graph g = ft_debruijn_graph({.base = m, .digits = 3, .spares = 1});
    EXPECT_LE(g.max_degree(), 6 * m - 4) << "m=" << m;
  }
}

TEST(FtDeBruijnBaseM, AblationNarrowerOffsetsBreakTolerance) {
  // Remove just the outermost negative offset: (m-1)(-k)+1 .. (m-1)(k+1).
  // h = 3: at h = 2 the graph is so small that the remaining offsets'
  // wrap-around coverage compensates for the removed offset.
  const std::uint64_t m = 3;
  const unsigned h = 3;
  const unsigned k = 2;
  const Graph target = debruijn_graph({.base = m, .digits = h});
  const auto full = ft_debruijn_offsets({.base = m, .digits = h, .spares = k});
  Graph narrowed =
      ft_debruijn_graph_custom_offsets(m, h, k, OffsetRange{full.lo + 1, full.hi});
  const auto report = check_tolerance_exhaustive(target, narrowed, k);
  EXPECT_FALSE(report.tolerant);
}

TEST(FtDeBruijnBaseM, Base2SpecializationMatchesSection3) {
  // Section IV generalizes Section III: for m = 2 the two parameterizations
  // build the identical graph.
  for (unsigned h = 3; h <= 5; ++h) {
    for (unsigned k = 0; k <= 3; ++k) {
      const Graph general = ft_debruijn_graph({.base = 2, .digits = h, .spares = k});
      const Graph base2 = ft_debruijn_base2(h, k);
      EXPECT_TRUE(general.same_structure(base2)) << "h=" << h << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace ftdb
