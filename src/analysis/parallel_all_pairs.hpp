// Parallel all-pairs structural analysis engine.
//
// All-pairs BFS is the inner loop of every structural report (diameter,
// average distance, reconfigured-diameter verification). This engine makes it
// production-scale along two independent axes:
//
//  * Bit-parallelism: sources are processed in batches of 64, one bit per
//    source. MultiSourceBfs (graph/multi_source_bfs.hpp) advances 64
//    frontiers at once with word-wide ORs, pushing from sparse frontiers and
//    pulling into the still-open nodes once the frontier is dense — a large
//    constant-factor win on the small-diameter expander-like graphs of the
//    paper.
//  * Thread-parallelism: batches are independent, so they are sharded across
//    a worker pool (the same plain std::thread pool discipline bench_runner
//    uses). Per-batch partial results are stored by batch index and reduced
//    in batch order, making the result bit-for-bit deterministic regardless
//    of scheduling.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace ftdb::analysis {

struct AllPairsOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  unsigned threads = 0;
};

/// Aggregates over all ordered source/target pairs (s != t).
struct AllPairsSummary {
  std::uint64_t sources = 0;              ///< number of BFS sources (= nodes)
  std::uint64_t reachable_pairs = 0;      ///< ordered pairs with finite distance
  std::uint64_t total_distance = 0;       ///< sum of finite pairwise distances
  std::uint32_t max_finite_distance = 0;  ///< max finite distance (diameter when connected)
  bool connected = false;                 ///< every source reaches every node (true for n <= 1)
};

AllPairsSummary all_pairs_summary(const Graph& g, const AllPairsOptions& options = {});

/// Exact diameter via the engine; kUnreachable when disconnected, 0 when empty.
std::uint32_t parallel_diameter(const Graph& g, const AllPairsOptions& options = {});

}  // namespace ftdb::analysis
