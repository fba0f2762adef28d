// Tests for the tolerance-checking machinery itself (fault-set enumeration,
// binomials, the pairwise proof, and the VF2-based generic
// checker).
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>

#include "ft/bus_ft.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/tolerance.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb {
namespace {

TEST(Binomial, KnownValues) {
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(17, 1), 17u);
  EXPECT_EQ(binomial(20, 10), 184756u);
  EXPECT_EQ(binomial(3, 4), 0u);
}

TEST(ForEachFaultSet, EnumeratesAllCombinations) {
  std::set<std::vector<NodeId>> seen;
  for_each_fault_set(5, 2, [&](const std::vector<NodeId>& s) {
    seen.insert(s);
    return true;
  });
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_TRUE(seen.count({0, 1}));
  EXPECT_TRUE(seen.count({3, 4}));
}

TEST(ForEachFaultSet, LexicographicOrder) {
  std::vector<std::vector<NodeId>> order;
  for_each_fault_set(4, 2, [&](const std::vector<NodeId>& s) {
    order.push_back(s);
    return true;
  });
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order.front(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(order.back(), (std::vector<NodeId>{2, 3}));
  for (std::size_t i = 0; i + 1 < order.size(); ++i) EXPECT_LT(order[i], order[i + 1]);
}

TEST(ForEachFaultSet, EarlyStop) {
  int count = 0;
  for_each_fault_set(6, 2, [&](const std::vector<NodeId>&) { return ++count < 3; });
  EXPECT_EQ(count, 3);
}

TEST(ForEachFaultSet, KZero) {
  int count = 0;
  for_each_fault_set(6, 0, [&](const std::vector<NodeId>& s) {
    EXPECT_TRUE(s.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
}

TEST(ForEachFaultSet, KGreaterThanNIsEmpty) {
  int count = 0;
  for_each_fault_set(2, 3, [&](const std::vector<NodeId>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);
}

TEST(MonotoneEmbeddingSurvives, ReportsViolatedEdge) {
  // Target = path 0-1-2; "FT" graph = path 0-1-2-3 (path is NOT 1-fault
  // tolerant with one spare: killing node 1 leaves 0,2,3 and the monotone
  // embedding needs edges (0,2),(2,3)).
  const Graph target = make_graph(3, {{0, 1}, {1, 2}});
  const Graph ft = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  FaultSet faults(4, {1});
  Edge violation{};
  EXPECT_FALSE(monotone_embedding_survives(target, ft, faults, &violation));
  EXPECT_EQ(violation.u, 0u);
  EXPECT_EQ(violation.v, 1u);  // logical edge (0,1) maps to physical (0,2): missing
}

TEST(CheckToleranceExhaustive, FindsCounterexample) {
  const Graph target = make_graph(3, {{0, 1}, {1, 2}});
  const Graph ft = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto report = check_tolerance_exhaustive(target, ft, 1);
  EXPECT_FALSE(report.tolerant);
  EXPECT_FALSE(report.counterexample_faults.empty());
}

TEST(CheckToleranceExhaustive, CycleWithChordsTolerant) {
  // C_4 with one spare arranged as the FT construction for a cycle: the
  // "+1 spare ring with skip edges" is (1, C_4)-tolerant.
  const Graph target = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  GraphBuilder b(5);
  for (NodeId i = 0; i < 5; ++i) {
    b.add_edge(i, (i + 1) % 5);  // ring
    b.add_edge(i, (i + 2) % 5);  // skip chord absorbs the offset drift
  }
  const auto report = check_tolerance_exhaustive(target, b.build(), 1);
  EXPECT_TRUE(report.tolerant);
  EXPECT_EQ(report.fault_sets_checked, 5u);
}

TEST(CheckToleranceVf2, AgreesWithMonotoneWitnessOnSmallCase) {
  // The generic VF2 checker (no assumption about reconfiguration) must agree
  // that B^1_{2,3} is (1, B_{2,3})-tolerant.
  const Graph target = debruijn_base2(3);
  const Graph ft = ft_debruijn_base2(3, 1);
  const auto vf2 = check_tolerance_exhaustive_vf2(target, ft, 1);
  const auto monotone = check_tolerance_exhaustive(target, ft, 1);
  EXPECT_TRUE(vf2.tolerant);
  EXPECT_TRUE(monotone.tolerant);
  EXPECT_EQ(vf2.fault_sets_checked, monotone.fault_sets_checked);
}

TEST(CheckToleranceVf2, DetectsIntolerance) {
  const Graph target = make_graph(3, {{0, 1}, {1, 2}, {0, 2}});  // triangle
  const Graph ft = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});  // C4: no triangle at all
  const auto report = check_tolerance_exhaustive_vf2(target, ft, 1);
  EXPECT_FALSE(report.tolerant);
}

TEST(PigeonholeLowerBound, FewerThanKSparesCannotWork) {
  // With only k-1 spares, k faults leave fewer than N survivors — no graph
  // on N+k-1 nodes can be (k, G)-tolerant. Executable pigeonhole argument.
  const Graph target = debruijn_base2(3);  // N = 8
  const unsigned k = 2;
  const Graph undersized = ft_debruijn_base2(3, k - 1);  // 9 nodes only
  FaultSet faults(undersized.num_nodes(), {0, 1});
  EXPECT_FALSE(monotone_embedding_survives(target, undersized, faults));
}

// --- the pairwise proof ---------------------------------------------------------

struct Fabric {
  std::string name;
  Graph target;
  Graph ft;
  unsigned k;
};

/// The paper's fabrics small enough to enumerate: B_{2,h} (h <= 5), B_{3,3},
/// SE_h (h <= 5) and the bus machine's realized graph (h <= 4), k <= 3.
std::vector<Fabric> small_fabrics() {
  std::vector<Fabric> out;
  for (unsigned k = 0; k <= 3; ++k) {
    const std::string ks = ",k=" + std::to_string(k);
    for (unsigned h = 1; h <= 5; ++h) {
      out.push_back({"B(2," + std::to_string(h) + ")" + ks, debruijn_base2(h),
                     ft_debruijn_base2(h, k), k});
      out.push_back({"SE(" + std::to_string(h) + ")" + ks, shuffle_exchange_graph(h),
                     ft_shuffle_exchange_natural(h, k).ft_graph, k});
    }
    out.push_back({"B(3,3)" + ks, debruijn_graph({.base = 3, .digits = 3}),
                   ft_debruijn_graph({.base = 3, .digits = 3, .spares = k}), k});
    for (unsigned h = 2; h <= 4; ++h) {
      out.push_back({"bus(" + std::to_string(h) + ")" + ks, debruijn_base2(h),
                     bus_ft_debruijn_base2(h, k).realized_graph(), k});
    }
  }
  return out;
}

/// `g` without its `drop`-th edge.
Graph without_edge(const Graph& g, std::size_t drop) {
  std::vector<Edge> edges = g.edges();
  edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(drop));
  return make_graph(g.num_nodes(), edges);
}

/// Checks the proof against the exhaustive oracle on one (target, ft, k) and
/// validates its counterexample. Returns the proof's verdict.
bool expect_proof_matches_oracle(const Graph& target, const Graph& ft, unsigned k,
                                 const std::string& what) {
  const ToleranceReport proof = check_tolerance_pairwise(target, ft, k);
  const ToleranceReport oracle = check_tolerance_exhaustive(target, ft, k, true);
  EXPECT_EQ(proof.tolerant, oracle.tolerant) << what;
  if (!proof.tolerant) {
    EXPECT_LE(proof.counterexample_faults.size(), k) << what;
    const FaultSet faults(ft.num_nodes(), proof.counterexample_faults);
    EXPECT_FALSE(monotone_embedding_survives(target, ft, faults)) << what;
    if (proof.violated_edge.u != kInvalidNode) {
      // The reported edge itself lands on a non-edge under that fault set.
      const std::vector<NodeId> phi = monotone_embedding(faults);
      EXPECT_TRUE(target.has_edge(proof.violated_edge.u, proof.violated_edge.v)) << what;
      EXPECT_FALSE(ft.has_edge(phi[proof.violated_edge.u], phi[proof.violated_edge.v])) << what;
    }
  }
  return proof.tolerant;
}

TEST(CheckTolerancePairwise, MatchesTheExhaustiveOracleOnThePapersFabrics) {
  for (const Fabric& f : small_fabrics()) {
    EXPECT_TRUE(expect_proof_matches_oracle(f.target, f.ft, f.k, f.name)) << f.name;
  }
}

TEST(CheckTolerancePairwise, MatchesTheOracleOneSpareShort) {
  // Checked at k + 1, the fabric has a spare too few: some k + 1 faults leave
  // fewer than N survivors.
  for (const Fabric& f : small_fabrics()) {
    EXPECT_FALSE(expect_proof_matches_oracle(f.target, f.ft, f.k + 1, f.name + " at k+1"));
  }
}

TEST(CheckTolerancePairwise, MatchesTheOracleWithOneEdgeDeleted) {
  std::mt19937_64 rng(17);
  std::size_t broken = 0;
  std::size_t checked = 0;
  for (const Fabric& f : small_fabrics()) {
    if (f.ft.num_edges() == 0) continue;
    for (int rep = 0; rep < 3; ++rep) {
      const std::size_t drop = rng() % f.ft.num_edges();
      const Graph cut = without_edge(f.ft, drop);
      ++checked;
      if (!expect_proof_matches_oracle(f.target, cut, f.k,
                                       f.name + " without edge " + std::to_string(drop))) {
        ++broken;
      }
    }
  }
  // Most single-edge deletions break tolerance; the oracle agrees either way.
  EXPECT_GT(broken, checked / 2);
}

TEST(CheckTolerancePairwise, FlagsAPathWithOneSpare) {
  const Graph target = make_graph(3, {{0, 1}, {1, 2}});
  const Graph ft = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const ToleranceReport report = check_tolerance_pairwise(target, ft, 1);
  EXPECT_FALSE(report.tolerant);
  EXPECT_EQ(report.fault_sets_checked, 0u);
  // Edge (0, 1) at a = 0 needs ft edges (0, 1) and (0, 2); (0, 2) is missing,
  // and the fault at 1 is what maps 1 onto 2.
  EXPECT_EQ(report.counterexample_faults, (std::vector<NodeId>{1}));
  EXPECT_EQ(report.violated_edge, (Edge{0, 1}));
}

TEST(CheckTolerancePairwise, UndersizedFabricFailsOnSurvivorCount) {
  const Graph target = debruijn_base2(3);                // N = 8
  const ToleranceReport short_one = check_tolerance_pairwise(target, ft_debruijn_base2(3, 1), 2);
  EXPECT_FALSE(short_one.tolerant);
  EXPECT_EQ(short_one.counterexample_faults, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(short_one.violated_edge, (Edge{kInvalidNode, kInvalidNode}));
  const ToleranceReport too_small = check_tolerance_pairwise(target, debruijn_base2(2), 0);
  EXPECT_FALSE(too_small.tolerant);
  EXPECT_TRUE(too_small.counterexample_faults.empty());
}

TEST(CheckTolerancePairwise, ProvenFabricsAtN4096SurviveSeededFaultSets) {
  const std::vector<Fabric> fabrics = {
      {"B(2,12),k=8", debruijn_base2(12), ft_debruijn_base2(12, 8), 8},
      {"SE(12),k=8", shuffle_exchange_graph(12), ft_shuffle_exchange_natural(12, 8).ft_graph, 8},
      {"bus(12),k=4", debruijn_base2(12), bus_ft_debruijn_base2(12, 4).realized_graph(), 4},
  };
  for (const Fabric& f : fabrics) {
    ASSERT_TRUE(check_tolerance_pairwise(f.target, f.ft, f.k).tolerant) << f.name;
    SplitMix64 rng(2026);
    for (int t = 0; t < 10000; ++t) {
      const FaultSet faults = FaultSet::random(
          f.ft.num_nodes(), static_cast<std::size_t>(rng.next_u64() % (f.k + 1)), rng);
      ASSERT_TRUE(monotone_embedding_survives(f.target, f.ft, faults)) << f.name << " trial " << t;
    }
  }
}

}  // namespace
}  // namespace ftdb
