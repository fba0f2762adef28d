// Graph embeddings (Section II of the paper): a 1-to-1 map φ : V(G) → V(G')
// such that every edge of G maps to an edge of G'. Includes a validator and a
// VF2-style backtracking search for subgraph monomorphisms, used to realize
// the Feldmann–Unger containment SE_h ⊆ B_{2,h} that the fault-tolerant
// shuffle-exchange construction relies on.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace ftdb {

/// φ as a dense vector: phi[x] is the image of pattern node x in the host.
using Embedding = std::vector<NodeId>;

/// Checks that `phi` is injective, in-range, and maps every pattern edge onto
/// a host edge. This is the paper's definition of an embedding.
bool is_valid_embedding(const Graph& pattern, const Graph& host, const Embedding& phi);

/// Options for the backtracking search.
struct EmbeddingSearchOptions {
  /// Abort after this many backtracking steps (0 = unlimited). A "step" is one
  /// candidate pair considered.
  std::size_t max_steps = 50'000'000;
};

/// Statistics from a search, for the experiment harness.
struct EmbeddingSearchStats {
  std::size_t steps = 0;
  bool aborted = false;
};

/// Finds an embedding (subgraph monomorphism) of `pattern` into `host`, or
/// nullopt if none exists / the step budget is exhausted. A VF2-style
/// backtracking search: pattern nodes are matched in a connectivity-first
/// order, host candidates in increasing label order (only host neighbors of
/// an already-mapped pattern neighbor's image once one exists), each checked
/// for degree and edge consistency. Deterministic: the same inputs always
/// return the same embedding and the same `stats->steps`.
std::optional<Embedding> find_subgraph_embedding(const Graph& pattern, const Graph& host,
                                                 const EmbeddingSearchOptions& options = {},
                                                 EmbeddingSearchStats* stats = nullptr);

/// Composes two embeddings: (g ∘ f)(x) = g[f[x]]. Requires f's image to lie in
/// g's domain.
Embedding compose(const Embedding& f, const Embedding& g);

/// The identity embedding on n nodes.
Embedding identity_embedding(std::size_t n);

}  // namespace ftdb
