// PERF2: the graph-core hot paths behind every experiment — all-pairs
// structural analysis (one BFS per source), exact diameter, dense routing
// tables, and repeated single-source BFS. These pin the traversal substrate
// the same way perf_construction pins the builders: each benchmark runs a
// fixed iteration count and reports it, so per-op time is
// wall_seconds / iterations.
#include <chrono>

#include "analysis/bench_registry.hpp"
#include "analysis/structural.hpp"
#include "graph/algorithms.hpp"
#include "ft/ft_debruijn.hpp"
#include "sim/router.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace {

using ftdb::analysis::BenchContext;

void all_pairs_debruijn(BenchContext& ctx, unsigned h, int iterations) {
  const ftdb::Graph g = ftdb::debruijn_base2(h);
  ftdb::analysis::StructuralSummary s;
  for (int i = 0; i < iterations; ++i) {
    s = ftdb::analysis::summarize_graph(g);
  }
  ctx.report("iterations", iterations);
  ctx.report("h", h);
  ctx.report("nodes", static_cast<double>(s.nodes));
  ctx.report("diameter", s.diameter);
  ctx.report("average_distance", s.average_distance);
}

FTDB_BENCH(all_pairs_h10, "perf_graph_core/all_pairs_b2_h10") {
  all_pairs_debruijn(ctx, 10, 5);
}

FTDB_BENCH(all_pairs_h12, "perf_graph_core/all_pairs_b2_h12") {
  all_pairs_debruijn(ctx, 12, 1);
}

FTDB_BENCH(all_pairs_ft_h10_k8, "perf_graph_core/all_pairs_ft_b2_h10_k8") {
  constexpr int kIterations = 2;
  const ftdb::Graph g = ftdb::ft_debruijn_base2(10, 8);
  ftdb::analysis::StructuralSummary s;
  for (int i = 0; i < kIterations; ++i) {
    s = ftdb::analysis::summarize_graph(g);
  }
  ctx.report("iterations", kIterations);
  ctx.report("nodes", static_cast<double>(s.nodes));
  ctx.report("diameter", s.diameter);
  ctx.report("average_distance", s.average_distance);
}

// Exact diameter through the push/pull multi-source BFS: B_{2,11} and SE_12
// (a campaign target) spend their middle levels pulling, the 4096-node cycle
// (diameter 2048) stays push nearly throughout. CI asserts the cycle costs at
// most 16x SE_12, which a pull-only kernel would break.
void diameter_bench(BenchContext& ctx, const ftdb::Graph& g, int iterations) {
  std::uint32_t d = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    d = ftdb::diameter(g);
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  ctx.report("iterations", iterations);
  ctx.report("nodes", static_cast<double>(g.num_nodes()));
  ctx.report("diameter", d);
  ctx.report("ns_per_iteration", elapsed.count() / iterations);
}

FTDB_BENCH(diameter_h11, "perf_graph_core/diameter_b2_h11") {
  diameter_bench(ctx, ftdb::debruijn_base2(11), 2);
}

FTDB_BENCH(diameter_se_h12, "perf_graph_core/diameter_se_h12") {
  diameter_bench(ctx, ftdb::shuffle_exchange_graph(12), 5);
}

FTDB_BENCH(diameter_cycle_n4096, "perf_graph_core/diameter_cycle_n4096") {
  constexpr std::size_t kNodes = 4096;
  ftdb::GraphBuilder b(kNodes);
  for (std::size_t v = 0; v < kNodes; ++v) {
    b.add_edge(static_cast<ftdb::NodeId>(v), static_cast<ftdb::NodeId>((v + 1) % kNodes));
  }
  diameter_bench(ctx, b.build(), 2);
}

FTDB_BENCH(routing_table_h9, "perf_graph_core/routing_table_b2_h9") {
  constexpr int kIterations = 10;
  const ftdb::Graph g = ftdb::debruijn_base2(9);
  std::size_t reachable = 0;
  for (int i = 0; i < kIterations; ++i) {
    const ftdb::sim::TableRouter table(g);
    reachable = table.reachable(0, static_cast<ftdb::NodeId>(g.num_nodes() - 1)) ? 1 : 0;
  }
  ctx.report("iterations", kIterations);
  ctx.report("reachable", static_cast<double>(reachable));
}

FTDB_BENCH(bfs_sources_h14, "perf_graph_core/bfs_64_sources_b2_h14") {
  constexpr int kIterations = 3;
  constexpr unsigned kSources = 64;
  const ftdb::Graph g = ftdb::debruijn_base2(14);
  std::uint64_t checksum = 0;
  for (int i = 0; i < kIterations; ++i) {
    for (unsigned s = 0; s < kSources; ++s) {
      const auto dist = ftdb::bfs_distances(g, static_cast<ftdb::NodeId>(s * 11));
      checksum += dist[dist.size() - 1];
    }
  }
  ctx.report("iterations", kIterations);
  ctx.report("sources", kSources);
  ctx.report("checksum", static_cast<double>(checksum));
}

FTDB_BENCH(components_h13, "perf_graph_core/connected_components_b2_h13") {
  constexpr int kIterations = 20;
  const ftdb::Graph g = ftdb::debruijn_base2(13);
  std::size_t components = 0;
  for (int i = 0; i < kIterations; ++i) {
    components = ftdb::num_connected_components(g);
  }
  ctx.report("iterations", kIterations);
  ctx.report("components", static_cast<double>(components));
}

}  // namespace
