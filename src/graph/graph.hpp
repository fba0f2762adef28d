// Core immutable graph type (CSR layout) and its builder.
//
// All graphs in this library follow the conventions of Section II of
// Bruck/Cypher/Ho: undirected simple graphs, no self-loops (constructions
// that would naturally produce self-loops simply drop them), nodes labelled
// 0 .. num_nodes()-1.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace ftdb {

/// Node identifier. Every graph uses a dense range [0, num_nodes).
using NodeId = std::uint32_t;

/// Sentinel for "no node" (used by search algorithms and routing tables).
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// An undirected edge, stored with endpoints in construction order.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph;

/// Accumulates edges and produces an immutable CSR `Graph`.
///
/// The builder tolerates duplicate edges, self-loops and edges given in either
/// endpoint order; `build()` canonicalizes (dedup, drop self-loops, sort
/// adjacency lists). This mirrors the paper's convention that self-loops
/// arising from the algebraic edge definitions "should be ignored".
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes);

  std::size_t num_nodes() const { return num_nodes_; }

  /// Records an undirected edge {u, v}. Self-loops are silently dropped at
  /// build time. Endpoints must be < num_nodes().
  void add_edge(NodeId u, NodeId v);

  /// Hint for the expected number of add_edge calls.
  void reserve_edges(std::size_t n) { raw_edges_.reserve(n); }

  /// Finalizes into an immutable Graph in O(V + E) via a two-pass counting
  /// sort of packed half-edges (no comparison sort, no per-list re-sort).
  /// The builder may be reused afterwards (it retains its edges); call
  /// `clear()` to start over.
  Graph build() const;

  /// The original comparison-sort construction, retained as the oracle for
  /// the property tests: `build()` must produce a byte-identical CSR.
  Graph build_reference() const;

  /// Expert path for topology generators that already emit every undirected
  /// edge as a pair of directed half-edges (csr::pack(u, v) and
  /// csr::pack(v, u)) with no self-loops — typically into
  /// csr::emission_buffer(). Skips the per-edge canonicalization pass
  /// entirely; duplicates are still collapsed. `half_edges` is consumed as
  /// scratch and left in an unspecified state.
  static Graph from_half_edges(std::size_t num_nodes,
                               std::vector<std::uint64_t>& half_edges);

  /// The de Bruijn-family row builder: joins every node x to
  /// (multiplier * x + r) mod num_nodes for each r in [lo, hi], and to every
  /// y with |x - y| <= band. Row x is a union of a few intervals (the
  /// out-interval, its preimages under y -> multiplier * y, and the band),
  /// so each sorted, duplicate-free row is merged straight into the CSR with
  /// no half-edge buffer and no sort. Self-loops are dropped.
  ///
  /// Throws std::invalid_argument when lo > hi or band < 0.
  static Graph from_offset_intervals(std::size_t num_nodes, std::uint64_t multiplier,
                                     std::int64_t lo, std::int64_t hi, std::int64_t band = 0);

  void clear() { raw_edges_.clear(); }

 private:
  std::size_t num_nodes_;
  std::vector<Edge> raw_edges_;
};

/// Immutable undirected simple graph in compressed sparse row layout.
///
/// Adjacency lists are sorted, enabling O(log d) `has_edge` and deterministic
/// iteration order everywhere (important for reproducible experiments).
class Graph {
 public:
  Graph() = default;

  std::size_t num_nodes() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Number of undirected edges (each counted once).
  std::size_t num_edges() const { return adjacency_.size() / 2; }

  /// Sorted neighbors of `v`.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }

  std::size_t degree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Maximum node degree; 0 for an empty graph. This is the quantity the
  /// paper's corollaries bound (e.g. deg(B^k_{2,h}) <= 4k+4).
  std::size_t max_degree() const;
  std::size_t min_degree() const;
  double average_degree() const;

  /// Binary search in the sorted adjacency list. Inline: this is the inner
  /// loop of the fault-tolerance verifiers, which call it once per edge.
  bool has_edge(NodeId u, NodeId v) const {
    if (u >= num_nodes() || v >= num_nodes()) return false;
    const auto nb = neighbors(u);
    return std::binary_search(nb.begin(), nb.end(), v);
  }

  /// All edges with u < v, in lexicographic order.
  std::vector<Edge> edges() const;

  /// Structural equality (same node count and identical edge sets).
  bool same_structure(const Graph& other) const;

  friend class GraphBuilder;

 private:
  // offsets_ has num_nodes()+1 entries; adjacency_ stores each undirected
  // edge twice (once per endpoint).
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> adjacency_;
};

/// Convenience: builds a graph directly from an edge list.
Graph make_graph(std::size_t num_nodes, const std::vector<Edge>& edges);

}  // namespace ftdb
