// Bit-parallel, direction-optimizing multi-source BFS kernel.
//
// Up to 64 BFS sources run at once, one bit per source (Then et al., "The
// More the Merrier", VLDB 2014). Each node keeps a 64-bit `visited` mask (the
// sources that reached it) and a `frontier` mask (the sources that reached it
// on the current level); one level-synchronous loop advances all 64 searches
// with word-wide ORs over the CSR. Each level runs in one of two directions
// (Beamer/Asanovic/Patterson, "Direction-Optimizing BFS", SC 2012):
//
//   * push — every frontier node ORs its mask into its neighbours'
//     next-level words, touching only the frontier's arcs. Cheap while the
//     frontier is sparse (long paths and cycles push on nearly every level).
//   * pull — every node whose `visited` mask is not yet full ORs its
//     neighbours' frontier words into its own; full nodes are skipped. Cheap
//     once the frontier is dense, which on the paper's expander-like graphs
//     is most of the middle levels.
//
// The direction is chosen per level from the graph and the frontier alone:
// pull once the frontier's arcs exceed half of the arcs of the open nodes
// (those some source has not reached yet), push otherwise. Both directions
// compute the same fresh bits, so distances and aggregates are exact either
// way.
//
// The batch aggregates (BatchStats) come from popcount of each level's fresh
// words times the level; the per-source bit loop runs only when the caller
// asks for whole distance rows. This is the core of the serial `diameter()`,
// the threaded `analysis::all_pairs_summary` (batches are independent, so
// callers may shard them across threads; one kernel instance per thread),
// the route-stretch audits and the embedding metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace ftdb {

class MultiSourceBfs {
 public:
  static constexpr std::size_t kBatchWidth = 64;

  /// Aggregates over one batch of sources.
  struct BatchStats {
    std::uint64_t reachable_pairs = 0;      ///< ordered (source, other) pairs reached
    std::uint64_t total_distance = 0;       ///< sum of finite distances from the sources
    std::uint32_t max_finite_distance = 0;  ///< max eccentricity over the batch
    bool all_reach_all = true;              ///< every source reached every node
  };

  /// Sizes the kernel for graphs of at most `num_nodes` nodes; running it on
  /// a larger graph throws std::invalid_argument.
  explicit MultiSourceBfs(std::size_t num_nodes)
      : visited_(num_nodes, 0), frontier_bits_(num_nodes, 0), next_bits_(num_nodes, 0) {}

  /// Runs the batch of sources [base, min(base + kBatchWidth, num_nodes)).
  BatchStats run(const Graph& g, NodeId base);

  /// Runs an explicit batch of up to kBatchWidth *distinct* sources
  /// (sources[i] rides bit i) and, when `distances` is non-null, writes the
  /// full distance vector of every source in the one pass:
  /// (*distances)[i * num_nodes + v] = d(sources[i], v), kUnreachable when
  /// unreached. This is the batch counterpart of BfsWorkspace::distances —
  /// callers that need whole rows of the distance matrix (route-stretch
  /// audits, embedding metrics) get 64 rows per traversal instead of one.
  BatchStats run_batch(const Graph& g, std::span<const NodeId> sources,
                       std::vector<std::uint32_t>* distances = nullptr);

 private:
  // Outside run_batch, frontier_bits_ and next_bits_ are all zero.
  std::vector<std::uint64_t> visited_;        // sources that reached v
  std::vector<std::uint64_t> frontier_bits_;  // sources that reached v on this level
  std::vector<std::uint64_t> next_bits_;      // words gathered for the next level
  std::vector<NodeId> frontier_;              // the frontier's nodes
  std::vector<NodeId> next_frontier_;         // push: touched nodes, then the next frontier
  std::vector<NodeId> open_;                  // pull: nodes that may still be open
};

}  // namespace ftdb
