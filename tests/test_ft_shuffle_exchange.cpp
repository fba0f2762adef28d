// Tests for the fault-tolerant shuffle-exchange constructions: the
// via-de-Bruijn route (degree 4k+4) and the natural-labeling route (paper
// figure 6k+4; our derived edge set stays within 5k+5).
#include <gtest/gtest.h>

#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/tolerance.hpp"
#include "graph/algorithms.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb {
namespace {

TEST(FindSeInDeBruijn, FindsTheSameEmbeddingEveryCall) {
  // No memo: each call re-runs the search, which is deterministic in h.
  auto first = find_se_in_debruijn(4);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(is_valid_embedding(shuffle_exchange_graph(4), debruijn_base2(4), *first));
  auto second = find_se_in_debruijn(4);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
}

TEST(ViaDeBruijn, FtGraphIsFtDeBruijn) {
  const auto machine = ft_shuffle_exchange_via_debruijn(4, 2);
  EXPECT_TRUE(machine.ft_graph.same_structure(ft_debruijn_base2(4, 2)));
  EXPECT_EQ(machine.h, 4u);
  EXPECT_EQ(machine.k, 2u);
}

TEST(ViaDeBruijn, DegreeIs4kPlus4) {
  for (unsigned k = 0; k <= 3; ++k) {
    const auto machine = ft_shuffle_exchange_via_debruijn(4, k);
    EXPECT_LE(machine.ft_graph.max_degree(), 4u * k + 4) << "k=" << k;
  }
}

class ViaDeBruijnTolerance : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(ViaDeBruijnTolerance, EveryFaultSetLeavesSeIntact) {
  const auto [h, k] = GetParam();
  const Graph se = shuffle_exchange_graph(h);
  const auto machine = ft_shuffle_exchange_via_debruijn(h, k);
  const std::size_t universe = machine.ft_graph.num_nodes();
  bool all_ok = true;
  for_each_fault_set(universe, k, [&](const std::vector<NodeId>& subset) {
    const FaultSet faults(universe, subset);
    const auto full = reconfigure(machine, faults);
    if (!full.has_value()) {
      all_ok = false;
      return false;
    }
    // Each SE edge must land on a healthy FT edge.
    for (const Edge& e : se.edges()) {
      const NodeId pu = (*full)[e.u];
      const NodeId pv = (*full)[e.v];
      if (faults.is_faulty(pu) || faults.is_faulty(pv) ||
          !machine.ft_graph.has_edge(pu, pv)) {
        all_ok = false;
        return false;
      }
    }
    return true;
  });
  EXPECT_TRUE(all_ok) << "h=" << h << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ViaDeBruijnTolerance,
                         ::testing::Values(std::pair<unsigned, unsigned>{3, 1},
                                           std::pair<unsigned, unsigned>{3, 2},
                                           std::pair<unsigned, unsigned>{4, 1},
                                           std::pair<unsigned, unsigned>{4, 2},
                                           std::pair<unsigned, unsigned>{5, 1}));

TEST(NaturalLabeling, NodeCountAndIdentitySigma) {
  const auto machine = ft_shuffle_exchange_natural(4, 2);
  EXPECT_EQ(machine.ft_graph.num_nodes(), 18u);
  EXPECT_EQ(machine.se_to_logical, identity_embedding(16));
}

TEST(NaturalLabeling, ZeroSparesContainsSe) {
  // With k = 0 the natural graph must contain SE_h under the identity.
  for (unsigned h = 3; h <= 6; ++h) {
    const auto machine = ft_shuffle_exchange_natural(h, 0);
    const Graph se = shuffle_exchange_graph(h);
    for (const Edge& e : se.edges()) {
      EXPECT_TRUE(machine.ft_graph.has_edge(e.u, e.v)) << "h=" << h;
    }
  }
}

class NaturalDegree : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(NaturalDegree, WithinOurBound) {
  const auto [h, k] = GetParam();
  const auto machine = ft_shuffle_exchange_natural(h, k);
  EXPECT_LE(machine.ft_graph.max_degree(), ft_se_natural_degree_bound_ours(k))
      << "h=" << h << " k=" << k;
  // Our verified edge set is at most 2 edges denser than the paper's quoted
  // 6k+4 (see the header comment); pin that gap so regressions surface.
  EXPECT_LE(machine.ft_graph.max_degree(), ft_se_natural_degree_bound_paper(k) + 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NaturalDegree,
                         ::testing::Values(std::pair<unsigned, unsigned>{3, 1},
                                           std::pair<unsigned, unsigned>{4, 1},
                                           std::pair<unsigned, unsigned>{4, 2},
                                           std::pair<unsigned, unsigned>{5, 3},
                                           std::pair<unsigned, unsigned>{6, 4},
                                           std::pair<unsigned, unsigned>{7, 2}));

class NaturalTolerance : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(NaturalTolerance, ExhaustiveToleranceForSe) {
  const auto [h, k] = GetParam();
  const Graph se = shuffle_exchange_graph(h);
  const auto machine = ft_shuffle_exchange_natural(h, k);
  const auto report = check_tolerance_exhaustive(se, machine.ft_graph, k);
  EXPECT_TRUE(report.tolerant)
      << "h=" << h << " k=" << k << " counterexample: "
      << ::testing::PrintToString(report.counterexample_faults);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NaturalTolerance,
                         ::testing::Values(std::pair<unsigned, unsigned>{3, 1},
                                           std::pair<unsigned, unsigned>{3, 2},
                                           std::pair<unsigned, unsigned>{3, 3},
                                           std::pair<unsigned, unsigned>{4, 1},
                                           std::pair<unsigned, unsigned>{4, 2},
                                           std::pair<unsigned, unsigned>{5, 1}));

TEST(NaturalTolerance, PairwiseProofLarge) {
  const Graph se = shuffle_exchange_graph(8);
  const auto machine = ft_shuffle_exchange_natural(8, 3);
  const auto report = check_tolerance_pairwise(se, machine.ft_graph, 3);
  EXPECT_TRUE(report.tolerant);
}

TEST(NaturalLabeling, AblationWithoutExchangeFamilyBreaks) {
  // Dropping the widened exchange offsets must break tolerance. (h = 4:
  // at h = 3 the wide shuffle blocks of the tiny graph happen to cover the
  // missing exchange pairs, so the ablation only bites at realistic sizes.)
  const unsigned h = 4;
  const unsigned k = 2;
  SeOffsets offsets = ft_se_natural_offsets(k);
  offsets.exchange_hi = 1;  // only the bare +-1 exchange edges
  const Graph crippled = ft_se_natural_graph_custom(h, k, offsets);
  const auto report = check_tolerance_exhaustive(shuffle_exchange_graph(h), crippled, k);
  EXPECT_FALSE(report.tolerant);
}

TEST(Reconfigure, RejectsTooManyFaults) {
  const auto machine = ft_shuffle_exchange_natural(3, 1);
  FaultSet faults(machine.ft_graph.num_nodes(), {0, 1});
  EXPECT_FALSE(reconfigure(machine, faults).has_value());
}

TEST(Reconfigure, FewerFaultsStillWork) {
  const auto machine = ft_shuffle_exchange_natural(4, 3);
  FaultSet faults(machine.ft_graph.num_nodes(), {5});
  const auto phi = reconfigure(machine, faults);
  ASSERT_TRUE(phi.has_value());
  const Graph se = shuffle_exchange_graph(4);
  for (const Edge& e : se.edges()) {
    EXPECT_TRUE(machine.ft_graph.has_edge((*phi)[e.u], (*phi)[e.v]));
  }
}

TEST(Reconfigure, UniverseMismatchThrows) {
  const auto machine = ft_shuffle_exchange_natural(3, 1);
  FaultSet faults(4, {0});
  EXPECT_THROW(reconfigure(machine, faults), std::invalid_argument);
}

TEST(DegreeComparison, ViaDeBruijnBeatsNaturalForLargeK) {
  // 4k+4 < 5k+5 for every k >= 1: the containment route gives the better
  // degree, which is the point the paper makes.
  for (unsigned k = 1; k <= 4; ++k) {
    const auto via = ft_shuffle_exchange_via_debruijn(4, k);
    const auto natural = ft_shuffle_exchange_natural(4, k);
    EXPECT_LE(via.ft_graph.max_degree(), natural.ft_graph.max_degree() + 1) << "k=" << k;
  }
}

}  // namespace
}  // namespace ftdb
