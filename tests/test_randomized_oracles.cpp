// Randomized cross-validation against independent oracles: the CSR graph vs
// an adjacency-matrix oracle, BFS distances vs Floyd-Warshall, VF2 vs
// brute-force permutation search, and the FT edge predicate vs a from-scratch
// reimplementation. Seeds are fixed; failures print the seed context.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

#include "ft/ft_debruijn.hpp"
#include "ft/modmath.hpp"
#include "ft/reconfigure.hpp"
#include "ft/tolerance.hpp"
#include "graph/algorithms.hpp"
#include "graph/embedding.hpp"
#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"
#include "topology/debruijn.hpp"

namespace ftdb {
namespace {

Graph random_graph(std::size_t n, double p, std::mt19937_64& rng,
                   std::vector<std::vector<bool>>* matrix_out = nullptr) {
  std::bernoulli_distribution coin(p);
  GraphBuilder b(n);
  std::vector<std::vector<bool>> matrix(n, std::vector<bool>(n, false));
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (coin(rng)) {
        b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
        matrix[u][v] = matrix[v][u] = true;
      }
    }
  }
  if (matrix_out != nullptr) *matrix_out = std::move(matrix);
  return b.build();
}

TEST(RandomizedOracle, CsrMatchesAdjacencyMatrix) {
  std::mt19937_64 rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 5 + rng() % 30;
    std::vector<std::vector<bool>> matrix;
    const Graph g = random_graph(n, 0.3, rng, &matrix);
    std::size_t edge_count = 0;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        EXPECT_EQ(g.has_edge(static_cast<NodeId>(u), static_cast<NodeId>(v)),
                  matrix[u][v])
            << "trial " << trial << " u=" << u << " v=" << v;
        if (u < v && matrix[u][v]) ++edge_count;
      }
      std::size_t row_degree = 0;
      for (std::size_t v = 0; v < n; ++v) row_degree += matrix[u][v] ? 1 : 0;
      EXPECT_EQ(g.degree(static_cast<NodeId>(u)), row_degree);
    }
    EXPECT_EQ(g.num_edges(), edge_count);
  }
}

TEST(RandomizedOracle, BfsMatchesFloydWarshall) {
  std::mt19937_64 rng(202);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 4 + rng() % 20;
    const Graph g = random_graph(n, 0.25, rng);
    // Floyd-Warshall oracle.
    constexpr std::uint32_t inf = kUnreachable;
    std::vector<std::vector<std::uint32_t>> dist(n, std::vector<std::uint32_t>(n, inf));
    for (std::size_t v = 0; v < n; ++v) dist[v][v] = 0;
    for (const Edge& e : g.edges()) dist[e.u][e.v] = dist[e.v][e.u] = 1;
    for (std::size_t m = 0; m < n; ++m) {
      for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t v = 0; v < n; ++v) {
          if (dist[u][m] != inf && dist[m][v] != inf) {
            dist[u][v] = std::min(dist[u][v], dist[u][m] + dist[m][v]);
          }
        }
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      const auto bfs = bfs_distances(g, static_cast<NodeId>(s));
      for (std::size_t t = 0; t < n; ++t) {
        EXPECT_EQ(bfs[t], dist[s][t]) << "trial " << trial << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(RandomizedOracle, RoutingTableMatchesFloydWarshall) {
  std::mt19937_64 rng(303);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4 + rng() % 16;
    const Graph g = random_graph(n, 0.35, rng);
    const sim::TableRouter table(g);
    for (std::size_t s = 0; s < n; ++s) {
      const auto bfs = bfs_distances(g, static_cast<NodeId>(s));
      for (std::size_t t = 0; t < n; ++t) {
        if (bfs[t] == kUnreachable) {
          EXPECT_FALSE(table.reachable(static_cast<NodeId>(t), static_cast<NodeId>(s)));
        } else {
          EXPECT_EQ(table.distance(static_cast<NodeId>(t), static_cast<NodeId>(s)), bfs[t]);
        }
      }
    }
  }
}

bool brute_force_monomorphism(const Graph& pattern, const Graph& host) {
  // Only for tiny patterns: try every injective mapping.
  std::vector<NodeId> hosts(host.num_nodes());
  for (std::size_t i = 0; i < hosts.size(); ++i) hosts[i] = static_cast<NodeId>(i);
  std::vector<NodeId> chosen;
  std::vector<bool> used(host.num_nodes(), false);
  // Recursive lambda via explicit stack of choices.
  std::function<bool(std::size_t)> rec = [&](std::size_t depth) -> bool {
    if (depth == pattern.num_nodes()) return true;
    for (NodeId h : hosts) {
      if (used[h]) continue;
      bool ok = true;
      for (NodeId q : pattern.neighbors(static_cast<NodeId>(depth))) {
        if (q < depth && !host.has_edge(h, chosen[q])) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      used[h] = true;
      chosen.push_back(h);
      if (rec(depth + 1)) return true;
      chosen.pop_back();
      used[h] = false;
    }
    return false;
  };
  return rec(0);
}

TEST(RandomizedOracle, Vf2MatchesBruteForce) {
  std::mt19937_64 rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t pn = 3 + rng() % 3;  // pattern of 3..5 nodes
    const std::size_t hn = 5 + rng() % 4;  // host of 5..8 nodes
    const Graph pattern = random_graph(pn, 0.5, rng);
    const Graph host = random_graph(hn, 0.45, rng);
    const bool vf2 = find_subgraph_embedding(pattern, host).has_value();
    const bool brute = brute_force_monomorphism(pattern, host);
    EXPECT_EQ(vf2, brute) << "trial " << trial;
  }
}

TEST(RandomizedOracle, FtEdgePredicateReimplementation) {
  // Independent reimplementation of the B^k_{m,h} edge rule, compared
  // edge-by-edge with the library's generator.
  std::mt19937_64 rng(505);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t m = 2 + rng() % 3;
    const unsigned h = 2 + static_cast<unsigned>(rng() % 2);
    const unsigned k = static_cast<unsigned>(rng() % 4);
    const Graph g = ft_debruijn_graph({.base = m, .digits = h, .spares = k});
    const auto s = static_cast<std::int64_t>(g.num_nodes());
    const std::int64_t lo = static_cast<std::int64_t>(m - 1) * -static_cast<std::int64_t>(k);
    const std::int64_t hi = static_cast<std::int64_t>(m - 1) * (static_cast<std::int64_t>(k) + 1);
    for (std::int64_t x = 0; x < s; ++x) {
      for (std::int64_t y = x + 1; y < s; ++y) {
        bool expected = false;
        for (std::int64_t r = lo; r <= hi && !expected; ++r) {
          if (ft::affine_mod(x, static_cast<std::int64_t>(m), r, s) == y ||
              ft::affine_mod(y, static_cast<std::int64_t>(m), r, s) == x) {
            expected = true;
          }
        }
        EXPECT_EQ(g.has_edge(static_cast<NodeId>(x), static_cast<NodeId>(y)), expected)
            << "m=" << m << " h=" << h << " k=" << k << " x=" << x << " y=" << y;
      }
    }
  }
}

TEST(RandomizedFaultInjection, ReconfigurationYieldsHealthyDeBruijn) {
  // Theorem 1/2 exercised through the reconfiguration path: for random fault
  // sets of size <= k, the monotone embedding must map every edge of B_{m,h}
  // onto a surviving edge of B^k_{m,h}, and its offsets must obey Lemma 1
  // (non-decreasing, within [0, |faults|]).
  SplitMix64 rng(20260729);
  const struct {
    std::uint64_t m;
    unsigned h;
    unsigned k;
  } cases[] = {{2, 4, 1}, {2, 4, 3}, {2, 5, 2}, {3, 3, 2}, {4, 3, 2}, {2, 6, 4}};
  for (const auto& c : cases) {
    const Graph target = debruijn_graph({.base = c.m, .digits = c.h});
    const Graph ft = ft_debruijn_graph({.base = c.m, .digits = c.h, .spares = c.k});
    ASSERT_EQ(ft.num_nodes(), target.num_nodes() + c.k);
    for (int trial = 0; trial < 25; ++trial) {
      const std::size_t f = rng.next_u64() % (c.k + 1);
      const FaultSet faults = FaultSet::random(ft.num_nodes(), f, rng);

      Edge violation{};
      EXPECT_TRUE(monotone_embedding_survives(target, ft, faults, &violation))
          << "m=" << c.m << " h=" << c.h << " k=" << c.k << " trial=" << trial
          << " |F|=" << f << " violated edge (" << violation.u << ", " << violation.v
          << ")";

      // phi maps all universe - |F| survivors; the target occupies the first
      // num_nodes() logical slots.
      const std::vector<NodeId> phi = monotone_embedding(faults);
      ASSERT_EQ(phi.size(), ft.num_nodes() - f);
      ASSERT_GE(phi.size(), target.num_nodes());
      const std::vector<std::uint32_t> offsets = embedding_offsets(phi);
      std::uint32_t prev = 0;
      for (std::size_t x = 0; x < target.num_nodes(); ++x) {
        EXPECT_FALSE(faults.is_faulty(phi[x]));
        EXPECT_LE(offsets[x], f) << "x=" << x;
        EXPECT_GE(offsets[x], prev) << "Lemma 1: offsets non-decreasing, x=" << x;
        prev = offsets[x];
      }
    }
  }
}

TEST(RandomizedFaultInjection, ReconfiguredMachinePresentsFullTarget) {
  // Operational form of the same claim: after reconfiguration the simulated
  // machine's live logical connectivity is all of B_{m,h} — every logical
  // link is up, so routing sees a healthy machine.
  SplitMix64 rng(777001);
  const struct {
    std::uint64_t m;
    unsigned h;
    unsigned k;
  } cases[] = {{2, 5, 3}, {3, 3, 2}, {2, 6, 2}};
  for (const auto& c : cases) {
    const Graph target = debruijn_graph({.base = c.m, .digits = c.h});
    const Graph ft = ft_debruijn_graph({.base = c.m, .digits = c.h, .spares = c.k});
    for (int trial = 0; trial < 10; ++trial) {
      const std::size_t f = rng.next_u64() % (c.k + 1);
      const FaultSet faults = FaultSet::random(ft.num_nodes(), f, rng);
      const sim::Machine machine =
          sim::Machine::reconfigured(ft, faults, target.num_nodes());
      const Graph live = machine.live_logical_graph(target);
      ASSERT_EQ(live.num_nodes(), target.num_nodes());
      EXPECT_EQ(live.num_edges(), target.num_edges())
          << "m=" << c.m << " h=" << c.h << " k=" << c.k << " trial=" << trial
          << " |F|=" << f;
      for (NodeId u = 0; u < target.num_nodes(); ++u) {
        for (const NodeId v : target.neighbors(u)) {
          if (u < v) {
            EXPECT_TRUE(machine.logical_link_up(u, v))
                << "logical link (" << u << ", " << v << ") down after reconfig";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ftdb
