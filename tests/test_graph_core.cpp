// Property tests for the linear-time graph core: the counting-sort CSR
// construction must be byte-identical to the retained comparison-sort
// reference (`GraphBuilder::build_reference`), and the allocation-free
// BfsWorkspace / bit-parallel all-pairs engine must agree exactly with a
// plain queue-based BFS oracle — across random multigraphs, the paper
// construction grid (m, h, k) in {2,3,4} x {2..6} x {0..4}, and edge cases
// (empty graph, self-loops only, parallel edges).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>
#include <random>
#include <vector>

#include "analysis/parallel_all_pairs.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/modmath.hpp"
#include "graph/algorithms.hpp"
#include "graph/bfs_workspace.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "graph/multi_source_bfs.hpp"
#include "topology/debruijn.hpp"
#include "topology/labels.hpp"
#include "topology/shuffle_exchange.hpp"

namespace {

using namespace ftdb;

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> queue_bfs_distances(const Graph& g, NodeId source) {
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::vector<NodeId> queue_bfs_parents(const Graph& g, NodeId source) {
  std::vector<NodeId> parent(g.num_nodes(), kInvalidNode);
  std::queue<NodeId> frontier;
  parent[source] = source;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : g.neighbors(u)) {
      if (parent[v] == kInvalidNode) {
        parent[v] = u;
        frontier.push(v);
      }
    }
  }
  return parent;
}

Graph random_multigraph(std::mt19937_64& rng, std::size_t max_nodes, GraphBuilder* out_builder) {
  std::uniform_int_distribution<std::size_t> node_dist(0, max_nodes);
  const std::size_t n = node_dist(rng);
  GraphBuilder b(n);
  if (n > 0) {
    std::uniform_int_distribution<std::size_t> edge_count(0, 4 * n);
    std::uniform_int_distribution<NodeId> node(0, static_cast<NodeId>(n - 1));
    const std::size_t m = edge_count(rng);
    for (std::size_t i = 0; i < m; ++i) {
      // Includes self-loops, duplicates and both endpoint orders by design.
      b.add_edge(node(rng), node(rng));
    }
  }
  if (out_builder != nullptr) *out_builder = b;
  return b.build();
}

void expect_identical(const Graph& fast, const Graph& reference) {
  ASSERT_EQ(fast.num_nodes(), reference.num_nodes());
  ASSERT_EQ(fast.num_edges(), reference.num_edges());
  // same_structure compares the raw offsets/adjacency arrays — byte-identical
  // CSR, not just an isomorphic edge set.
  EXPECT_TRUE(fast.same_structure(reference));
}

// ---------------------------------------------------------------------------
// Radix CSR construction vs the retained reference implementation
// ---------------------------------------------------------------------------

TEST(RadixCsrConstruction, MatchesReferenceOnRandomMultigraphs) {
  std::mt19937_64 rng(20260729);
  for (int trial = 0; trial < 200; ++trial) {
    GraphBuilder b(0);
    const Graph fast = random_multigraph(rng, 64, &b);
    expect_identical(fast, b.build_reference());
  }
}

TEST(RadixCsrConstruction, MatchesReferenceOnEdgeCases) {
  {
    GraphBuilder b(0);  // empty graph: no nodes, no edges
    expect_identical(b.build(), b.build_reference());
    EXPECT_EQ(b.build().num_nodes(), 0u);
  }
  {
    GraphBuilder b(5);  // nodes but no edges
    expect_identical(b.build(), b.build_reference());
    EXPECT_EQ(b.build().num_edges(), 0u);
  }
  {
    GraphBuilder b(4);  // self-loops only: all dropped
    for (NodeId v = 0; v < 4; ++v) b.add_edge(v, v);
    const Graph g = b.build();
    expect_identical(g, b.build_reference());
    EXPECT_EQ(g.num_edges(), 0u);
  }
  {
    GraphBuilder b(3);  // parallel edges in both orders: collapse to one
    for (int i = 0; i < 7; ++i) b.add_edge(0, 1);
    for (int i = 0; i < 7; ++i) b.add_edge(1, 0);
    b.add_edge(2, 2);
    const Graph g = b.build();
    expect_identical(g, b.build_reference());
    EXPECT_EQ(g.num_edges(), 1u);
    EXPECT_TRUE(g.has_edge(0, 1));
  }
}

TEST(RadixCsrConstruction, MatchesReferenceOnPaperConstructionGrid) {
  for (std::uint64_t m = 2; m <= 4; ++m) {
    for (unsigned h = 2; h <= 6; ++h) {
      for (unsigned k = 0; k <= 4; ++k) {
        const FtDeBruijnParams params{.base = m, .digits = h, .spares = k};
        const Graph fast = ft_debruijn_graph(params);

        // Reference: emit the defining arcs X(x, m, r, s) into the plain
        // builder and finalize with the retained comparison-sort path.
        const std::uint64_t n = ft_debruijn_num_nodes(params);
        const auto s = static_cast<std::int64_t>(n);
        const OffsetRange offsets = ft_debruijn_offsets(params);
        GraphBuilder b(n);
        for (std::int64_t x = 0; x < s; ++x) {
          for (std::int64_t r = offsets.lo; r <= offsets.hi; ++r) {
            b.add_edge(static_cast<NodeId>(x),
                       static_cast<NodeId>(ft::affine_mod(x, static_cast<std::int64_t>(m), r, s)));
          }
        }
        expect_identical(fast, b.build_reference());
      }
    }
  }
}

TEST(RadixCsrConstruction, MatchesReferenceOnTargetTopologies) {
  for (std::uint64_t m = 2; m <= 4; ++m) {
    for (unsigned h = 2; h <= 6; ++h) {
      const Graph fast = debruijn_graph({.base = static_cast<std::uint32_t>(m), .digits = h});
      const std::uint64_t n = labels::ipow_checked(m, h);
      GraphBuilder b(n);
      for (std::uint64_t x = 0; x < n; ++x) {
        for (std::uint64_t r = 0; r < m; ++r) {
          b.add_edge(static_cast<NodeId>(x), static_cast<NodeId>((x * m + r) % n));
        }
      }
      expect_identical(fast, b.build_reference());
    }
  }
  for (unsigned h = 2; h <= 8; ++h) {
    const Graph fast = shuffle_exchange_graph(h);
    const std::uint64_t n = labels::ipow_checked(2, h);
    GraphBuilder b(n);
    for (std::uint64_t x = 0; x < n; ++x) {
      b.add_edge(static_cast<NodeId>(x), static_cast<NodeId>(labels::rotate_left(x, 2, h)));
      b.add_edge(static_cast<NodeId>(x), static_cast<NodeId>(labels::exchange_bit0(x)));
    }
    expect_identical(fast, b.build_reference());
  }
}

TEST(RadixCsrConstruction, DigraphBuilderMatchesSortedArcConstruction) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::uniform_int_distribution<std::size_t> node_dist(1, 48);
    const std::size_t n = node_dist(rng);
    std::uniform_int_distribution<std::size_t> arc_count(0, 5 * n);
    std::uniform_int_distribution<NodeId> node(0, static_cast<NodeId>(n - 1));
    std::vector<std::pair<NodeId, NodeId>> arcs;
    const std::size_t m = arc_count(rng);
    for (std::size_t i = 0; i < m; ++i) arcs.emplace_back(node(rng), node(rng));

    DigraphBuilder builder(n);
    for (const auto& [u, v] : arcs) builder.add_arc(u, v);
    const Digraph fast = std::move(builder).build();

    // Reference: the original construction sorted the arc list and scattered
    // it into both CSRs; replicate that ordering directly.
    std::sort(arcs.begin(), arcs.end());
    ASSERT_EQ(fast.num_nodes(), n);
    ASSERT_EQ(fast.num_arcs(), arcs.size());
    std::vector<std::vector<NodeId>> out(n), in(n);
    for (const auto& [u, v] : arcs) {
      out[u].push_back(v);
      in[v].push_back(u);
    }
    for (std::size_t v = 0; v < n; ++v) {
      const auto fo = fast.out_neighbors(static_cast<NodeId>(v));
      const auto fi = fast.in_neighbors(static_cast<NodeId>(v));
      ASSERT_EQ(std::vector<NodeId>(fo.begin(), fo.end()), out[v]) << "node " << v;
      ASSERT_EQ(std::vector<NodeId>(fi.begin(), fi.end()), in[v]) << "node " << v;
    }
  }
}

TEST(RadixCsrConstruction, HalfEdgeFastPathRejectsOutOfRangeEndpoints) {
  std::vector<std::uint64_t> halves{(std::uint64_t{7} << 32) | 1, (std::uint64_t{1} << 32) | 7};
  EXPECT_THROW(GraphBuilder::from_half_edges(4, halves), std::out_of_range);
}

// ---------------------------------------------------------------------------
// BfsWorkspace vs the queue-based oracle
// ---------------------------------------------------------------------------

TEST(BfsWorkspaceProperty, DistancesAndParentsMatchQueueBfs) {
  std::mt19937_64 rng(7);
  BfsWorkspace ws;  // shared across all graphs/sources to exercise epoch reuse
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> parent;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = random_multigraph(rng, 48, nullptr);
    for (std::size_t s = 0; s < g.num_nodes(); ++s) {
      const auto source = static_cast<NodeId>(s);
      ws.distances(g, source, dist);
      EXPECT_EQ(dist, queue_bfs_distances(g, source));
      ws.parents(g, source, parent);
      EXPECT_EQ(parent, queue_bfs_parents(g, source));
    }
  }
}

TEST(BfsWorkspaceProperty, SweepMatchesDistanceAggregates) {
  std::mt19937_64 rng(11);
  BfsWorkspace ws;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = random_multigraph(rng, 48, nullptr);
    for (std::size_t s = 0; s < g.num_nodes(); ++s) {
      const auto source = static_cast<NodeId>(s);
      const auto sweep = ws.sweep(g, source);
      const auto dist = queue_bfs_distances(g, source);
      std::uint64_t reached = 0, total = 0;
      std::uint32_t ecc = 0;
      for (const std::uint32_t d : dist) {
        if (d == kUnreachable) continue;
        ++reached;
        total += d;
        ecc = std::max(ecc, d);
      }
      EXPECT_EQ(sweep.reached, reached);
      EXPECT_EQ(sweep.total_distance, total);
      EXPECT_EQ(sweep.eccentricity, ecc);
    }
  }
}

TEST(BfsWorkspaceProperty, WorksOnPaperConstructions) {
  BfsWorkspace ws;
  std::vector<std::uint32_t> dist;
  for (unsigned h = 2; h <= 5; ++h) {
    for (unsigned k = 0; k <= 3; ++k) {
      const Graph g = ft_debruijn_base2(h, k);
      for (const NodeId source : {NodeId{0}, static_cast<NodeId>(g.num_nodes() - 1)}) {
        ws.distances(g, source, dist);
        EXPECT_EQ(dist, queue_bfs_distances(g, source));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-parallel all-pairs engine vs per-source accumulation
// ---------------------------------------------------------------------------

ftdb::analysis::AllPairsSummary reference_all_pairs(const Graph& g) {
  ftdb::analysis::AllPairsSummary ref;
  ref.sources = g.num_nodes();
  ref.connected = true;
  if (g.num_nodes() <= 1) return ref;
  for (std::size_t s = 0; s < g.num_nodes(); ++s) {
    const auto dist = queue_bfs_distances(g, static_cast<NodeId>(s));
    std::uint64_t reached = 0;
    for (const std::uint32_t d : dist) {
      if (d == kUnreachable) continue;
      ++reached;
      ref.total_distance += d;
      ref.max_finite_distance = std::max(ref.max_finite_distance, d);
    }
    ref.reachable_pairs += reached - 1;
    ref.connected = ref.connected && reached == g.num_nodes();
  }
  return ref;
}

void expect_summary_eq(const ftdb::analysis::AllPairsSummary& a,
                       const ftdb::analysis::AllPairsSummary& b) {
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.reachable_pairs, b.reachable_pairs);
  EXPECT_EQ(a.total_distance, b.total_distance);
  EXPECT_EQ(a.max_finite_distance, b.max_finite_distance);
  EXPECT_EQ(a.connected, b.connected);
}

TEST(ParallelAllPairs, MatchesReferenceOnRandomGraphs) {
  std::mt19937_64 rng(2029);
  for (int trial = 0; trial < 80; ++trial) {
    const Graph g = random_multigraph(rng, 90, nullptr);  // spans multiple 64-wide batches
    const auto ref = reference_all_pairs(g);
    expect_summary_eq(ftdb::analysis::all_pairs_summary(g), ref);
    // Thread sharding must not change any aggregate (deterministic reduction).
    expect_summary_eq(ftdb::analysis::all_pairs_summary(g, {.threads = 3}), ref);
  }
}

TEST(ParallelAllPairs, MatchesReferenceOnPaperConstructions) {
  for (unsigned h = 2; h <= 6; ++h) {
    for (unsigned k : {0u, 2u}) {
      const Graph g = ft_debruijn_base2(h, k);
      expect_summary_eq(ftdb::analysis::all_pairs_summary(g), reference_all_pairs(g));
    }
  }
}

TEST(ParallelAllPairs, EdgeCases) {
  {
    const Graph g = make_graph(0, {});
    const auto s = ftdb::analysis::all_pairs_summary(g);
    EXPECT_TRUE(s.connected);
    EXPECT_EQ(s.reachable_pairs, 0u);
    EXPECT_EQ(ftdb::analysis::parallel_diameter(g), 0u);
  }
  {
    const Graph g = make_graph(1, {});
    EXPECT_TRUE(ftdb::analysis::all_pairs_summary(g).connected);
    EXPECT_EQ(ftdb::analysis::parallel_diameter(g), 0u);
  }
  {
    const Graph g = make_graph(4, {{0, 1}, {2, 3}});  // disconnected
    EXPECT_FALSE(ftdb::analysis::all_pairs_summary(g).connected);
    EXPECT_EQ(ftdb::analysis::parallel_diameter(g), kUnreachable);
    EXPECT_EQ(diameter(g), kUnreachable);
  }
}

TEST(ParallelAllPairs, DiameterAgreesWithSerialSweeps) {
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const Graph g = random_multigraph(rng, 90, nullptr);
    std::uint32_t ref = 0;
    if (g.num_nodes() > 0) {
      bool connected = true;
      for (std::size_t s = 0; s < g.num_nodes(); ++s) {
        const auto dist = queue_bfs_distances(g, static_cast<NodeId>(s));
        for (const std::uint32_t d : dist) {
          if (d == kUnreachable) {
            connected = false;
          } else {
            ref = std::max(ref, d);
          }
        }
      }
      if (!connected) ref = kUnreachable;
    }
    EXPECT_EQ(diameter(g), ref);
    EXPECT_EQ(ftdb::analysis::parallel_diameter(g), ref);
  }
}

// ---------------------------------------------------------------------------
// MultiSourceBfs::run_batch distance output vs the queue BFS oracle
// ---------------------------------------------------------------------------

TEST(MultiSourceBatchDistances, MatchesQueueBfsOnRandomGraphsAndArbitrarySources) {
  std::mt19937_64 rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const Graph g = random_multigraph(rng, 90, nullptr);
    const std::size_t n = g.num_nodes();
    if (n == 0) continue;
    // An arbitrary (non-contiguous, unsorted) batch of distinct sources.
    std::vector<NodeId> all(n);
    for (std::size_t v = 0; v < n; ++v) all[v] = static_cast<NodeId>(v);
    std::shuffle(all.begin(), all.end(), rng);
    const std::size_t width = 1 + rng() % std::min<std::size_t>(n, 64);
    const std::vector<NodeId> sources(all.begin(),
                                      all.begin() + static_cast<std::ptrdiff_t>(width));
    MultiSourceBfs scan(n);
    std::vector<std::uint32_t> dist;
    scan.run_batch(g, sources, &dist);
    ASSERT_EQ(dist.size(), width * n);
    for (std::size_t i = 0; i < width; ++i) {
      const auto ref = queue_bfs_distances(g, sources[i]);
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(dist[i * n + v], ref[v])
            << "trial " << trial << " source " << sources[i] << " node " << v;
      }
    }
  }
}

TEST(MultiSourceBatchDistances, RejectsBadBatches) {
  const Graph g = debruijn_base2(3);
  MultiSourceBfs scan(g.num_nodes());
  EXPECT_THROW(scan.run_batch(g, std::vector<NodeId>{}), std::invalid_argument);
  EXPECT_THROW(scan.run_batch(g, std::vector<NodeId>{0, 0}), std::invalid_argument);
  EXPECT_THROW(scan.run_batch(g, std::vector<NodeId>{99}), std::invalid_argument);
}

TEST(MultiSourceBatchDistances, ContiguousRunStillMatchesAggregates) {
  // run() is now a thin wrapper over run_batch; its aggregates must agree
  // with per-source sweeps.
  const Graph g = ft_debruijn_base2(5, 3);
  MultiSourceBfs scan(g.num_nodes());
  const auto stats = scan.run(g, 0);
  std::uint64_t pairs = 0;
  std::uint64_t total = 0;
  std::uint32_t ecc = 0;
  for (NodeId s = 0; s < 35; ++s) {
    const auto ref = queue_bfs_distances(g, s);
    for (const std::uint32_t d : ref) {
      if (d == kUnreachable || d == 0) continue;
      ++pairs;
      total += d;
      ecc = std::max(ecc, d);
    }
  }
  EXPECT_EQ(stats.reachable_pairs, pairs);
  EXPECT_EQ(stats.total_distance, total);
  EXPECT_EQ(stats.max_finite_distance, ecc);
  EXPECT_TRUE(stats.all_reach_all);
}

// ---------------------------------------------------------------------------
// Every push/pull regime of the kernel vs the queue BFS oracle
// ---------------------------------------------------------------------------

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (std::size_t v = 0; v + 1 < n; ++v) {
    b.add_edge(static_cast<NodeId>(v), static_cast<NodeId>(v + 1));
  }
  return b.build();
}

Graph cycle_graph(std::size_t n) {
  GraphBuilder b(n);
  for (std::size_t v = 0; v < n; ++v) {
    b.add_edge(static_cast<NodeId>(v), static_cast<NodeId>((v + 1) % n));
  }
  return b.build();
}

Graph star_graph(std::size_t n) {
  GraphBuilder b(n);
  for (std::size_t v = 1; v < n; ++v) b.add_edge(0, static_cast<NodeId>(v));
  return b.build();
}

Graph complete_graph(std::size_t n) {
  GraphBuilder b(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      b.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    }
  }
  return b.build();
}

// Checks run() aggregates and run_batch() distance rows batch by batch (the
// last batch may be short), then diameter() and all_pairs_summary on 1 and 3
// threads, all against per-source queue BFS.
void expect_kernel_matches_oracle(const Graph& g, const char* label) {
  SCOPED_TRACE(label);
  const std::size_t n = g.num_nodes();
  ASSERT_GT(n, 0u);
  std::vector<std::vector<std::uint32_t>> oracle(n);
  for (std::size_t s = 0; s < n; ++s) oracle[s] = queue_bfs_distances(g, static_cast<NodeId>(s));

  MultiSourceBfs scan(n);
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> batch;
  bool connected = true;
  std::uint32_t diam = 0;
  for (std::size_t base = 0; base < n; base += MultiSourceBfs::kBatchWidth) {
    const std::size_t width = std::min(MultiSourceBfs::kBatchWidth, n - base);
    MultiSourceBfs::BatchStats ref;
    for (std::size_t s = base; s < base + width; ++s) {
      std::uint64_t reached = 0;
      for (const std::uint32_t d : oracle[s]) {
        if (d == kUnreachable) continue;
        ++reached;
        ref.total_distance += d;
        ref.max_finite_distance = std::max(ref.max_finite_distance, d);
      }
      ref.reachable_pairs += reached - 1;
      ref.all_reach_all = ref.all_reach_all && reached == n;
    }
    const auto stats = scan.run(g, static_cast<NodeId>(base));
    EXPECT_EQ(stats.reachable_pairs, ref.reachable_pairs) << "batch " << base;
    EXPECT_EQ(stats.total_distance, ref.total_distance) << "batch " << base;
    EXPECT_EQ(stats.max_finite_distance, ref.max_finite_distance) << "batch " << base;
    EXPECT_EQ(stats.all_reach_all, ref.all_reach_all) << "batch " << base;
    connected = connected && ref.all_reach_all;
    diam = std::max(diam, ref.max_finite_distance);

    // Sources in reverse order ride the bits in the opposite direction.
    batch.clear();
    for (std::size_t s = base + width; s-- > base;) batch.push_back(static_cast<NodeId>(s));
    const auto batch_stats = scan.run_batch(g, batch, &dist);
    EXPECT_EQ(batch_stats.total_distance, ref.total_distance) << "batch " << base;
    ASSERT_EQ(dist.size(), width * n);
    for (std::size_t i = 0; i < width; ++i) {
      const auto row = dist.begin() + static_cast<std::ptrdiff_t>(i * n);
      ASSERT_TRUE(std::equal(row, row + static_cast<std::ptrdiff_t>(n), oracle[batch[i]].begin()))
          << "source " << batch[i];
    }
  }
  EXPECT_EQ(diameter(g), connected ? diam : kUnreachable);
  const auto ref_summary = reference_all_pairs(g);
  expect_summary_eq(ftdb::analysis::all_pairs_summary(g, {.threads = 1}), ref_summary);
  expect_summary_eq(ftdb::analysis::all_pairs_summary(g, {.threads = 3}), ref_summary);
}

TEST(MultiSourceRegimes, LongPathsAndCyclesStaySparse) {
  expect_kernel_matches_oracle(path_graph(1000), "path 1000");
  expect_kernel_matches_oracle(cycle_graph(640), "cycle 640");
  expect_kernel_matches_oracle(cycle_graph(331), "cycle 331");  // short last batch
}

TEST(MultiSourceRegimes, StarsAndCompleteGraphsAreDenseFromLevelOne) {
  expect_kernel_matches_oracle(star_graph(2050), "star 2050");  // sharded on 3 threads
  expect_kernel_matches_oracle(complete_graph(130), "complete 130");
  expect_kernel_matches_oracle(complete_graph(1), "complete 1");
  expect_kernel_matches_oracle(complete_graph(2), "complete 2");
}

TEST(MultiSourceRegimes, DisconnectedGraphsWithIsolatedNodes) {
  // A cycle, a clique, a path and isolated nodes, interleaved by a fixed
  // relabelling so every batch mixes components.
  constexpr std::size_t kNodes = 310;
  std::vector<NodeId> label(kNodes);
  std::iota(label.begin(), label.end(), NodeId{0});
  std::shuffle(label.begin(), label.end(), std::mt19937_64(31));
  GraphBuilder b(kNodes);
  for (NodeId v = 0; v < 150; ++v) b.add_edge(label[v], label[(v + 1) % 150]);
  for (NodeId u = 150; u < 170; ++u) {
    for (NodeId v = u + 1; v < 170; ++v) b.add_edge(label[u], label[v]);
  }
  for (NodeId v = 170; v + 1 < 300; ++v) b.add_edge(label[v], label[v + 1]);
  expect_kernel_matches_oracle(b.build(), "mixed components");
  expect_kernel_matches_oracle(make_graph(70, {}), "isolated nodes only");
}

TEST(MultiSourceRegimes, SelfLoopsAndMultiEdgesAreIgnored) {
  std::mt19937_64 rng(909);
  std::uniform_int_distribution<NodeId> node(0, 199);
  GraphBuilder b(200);
  for (int i = 0; i < 300; ++i) {
    const NodeId u = node(rng);
    const NodeId v = node(rng);
    b.add_edge(u, v);
    b.add_edge(v, u);  // parallel copy in the other endpoint order
    b.add_edge(u, u);  // self-loop
  }
  expect_kernel_matches_oracle(b.build(), "random multigraph");
  expect_kernel_matches_oracle(debruijn_base2(8), "B_{2,8}");
  expect_kernel_matches_oracle(shuffle_exchange_graph(8), "SE_8");
}

TEST(MultiSourceRegimes, GraphLargerThanTheKernelThrows) {
  const Graph small = cycle_graph(20);
  const Graph large = cycle_graph(21);
  MultiSourceBfs scan(small.num_nodes());
  EXPECT_THROW(scan.run(large, 0), std::invalid_argument);
  EXPECT_THROW(scan.run_batch(large, std::vector<NodeId>{0, 1}), std::invalid_argument);
  // The kernel stays usable, and a smaller graph than its size is fine.
  EXPECT_EQ(scan.run(small, 0).max_finite_distance, 10u);
  MultiSourceBfs roomy(100);
  std::vector<std::uint32_t> dist;
  roomy.run_batch(small, std::vector<NodeId>{3}, &dist);
  EXPECT_EQ(dist, queue_bfs_distances(small, 3));
  EXPECT_EQ(roomy.run(path_graph(40), 0).max_finite_distance, 39u);
}

// ---------------------------------------------------------------------------
// Closed-form diameters of the campaign targets
// ---------------------------------------------------------------------------

TEST(TargetDiameters, DeBruijnIsH) {
  // Every base 2..4 and every h with N = m^h <= 4096, from h = 1 (K_m).
  for (std::uint64_t m = 2; m <= 4; ++m) {
    std::uint64_t nodes = m;
    for (unsigned h = 1; nodes <= 4096; ++h, nodes *= m) {
      EXPECT_EQ(diameter(debruijn_graph({.base = m, .digits = h})), h) << "m=" << m << " h=" << h;
    }
  }
  for (unsigned h = 1; h <= 12; ++h) EXPECT_EQ(diameter(debruijn_base2(h)), h) << "h=" << h;
}

TEST(TargetDiameters, ShuffleExchangeIsTwoHMinusOne) {
  for (unsigned h = 1; h <= 13; ++h) {
    EXPECT_EQ(diameter(shuffle_exchange_graph(h)), 2 * h - 1) << "h=" << h;
  }
}

}  // namespace
