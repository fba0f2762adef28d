// Fault-tolerant shuffle-exchange networks (end of Section I / Section VI).
//
// The paper gives two routes:
//
//  1. Via containment: SE_h is a subgraph of B_{2,h} of the same size
//     (Feldmann/Unger, reference [7]), so B^k_{2,h} is automatically
//     (k, SE_h)-tolerant with degree 4k+4. The target-to-FT map is the
//     composition of the containment embedding sigma with the monotone rank
//     embedding phi.
//
//  2. Via the natural labeling: applying the Section III technique directly
//     to SE_h (nodes keep their binary labels) yields a dedicated graph; the
//     paper quotes degree 6k+4 for it. Our edge set is derived from the same
//     Lemma 1/2 analysis specialized to SE's two edge families:
//       shuffle   y = X(x, 2, r_x, 2^h)  =>  offsets r in [-k, k+1]  (as in B^k_{2,h})
//       exchange  y = x +- 1 (never wraps) =>  offsets e in [1, k+1]
//     The shuffle family contributes up to 2(2k+2) incidences per node and
//     the exchange family 2(k+1), so the measured degree is <= 6k+6
//     (attained for h >= 5); the paper's 6k+4 figure reflects a slightly
//     trimmed edge set it does not spell out. Tolerance of our edge set is
//     verified exhaustively by the test suite; either way the via-de-Bruijn
//     route's 4k+4 is strictly better, which is the paper's own conclusion.
#pragma once

#include <optional>

#include "graph/embedding.hpp"
#include "graph/graph.hpp"
#include "ft/reconfigure.hpp"

namespace ftdb {

/// Route 1: searches for the Feldmann–Unger containment SE_h -> B_{2,h} with
/// the VF2 engine (graph/embedding.hpp). Deterministic in h; practical for
/// h <= 6 (SE_6 takes 654,086 search steps).
std::optional<Embedding> find_se_in_debruijn(unsigned h,
                                             const EmbeddingSearchOptions& options = {});

/// A fault-tolerant shuffle-exchange "machine": the FT graph plus the static
/// part of the embedding pipeline.
struct FtShuffleExchange {
  Graph ft_graph;          // the physical interconnect
  Embedding se_to_logical; // SE_h -> logical node space of the FT graph's target
  unsigned h = 0;
  unsigned k = 0;
};

/// Route 1 construction: ft_graph = B^k_{2,h}, se_to_logical = sigma.
/// Throws std::runtime_error if the containment embedding cannot be found
/// within the step budget.
FtShuffleExchange ft_shuffle_exchange_via_debruijn(unsigned h, unsigned k,
                                                   const EmbeddingSearchOptions& options = {});

/// Route 2 construction: dedicated natural-labeling FT-SE graph on 2^h + k
/// nodes; se_to_logical is the identity.
FtShuffleExchange ft_shuffle_exchange_natural(unsigned h, unsigned k);

/// Offsets used by the natural construction (exposed for the ablation bench).
struct SeOffsets {
  std::int64_t shuffle_lo = 0;
  std::int64_t shuffle_hi = 0;
  std::int64_t exchange_hi = 0;  // exchange offsets are {1..exchange_hi} (and mirrored)
};
SeOffsets ft_se_natural_offsets(unsigned k);

/// Natural-labeling FT-SE with custom offsets, for the ablation experiment.
Graph ft_se_natural_graph_custom(unsigned h, unsigned k, const SeOffsets& offsets);

/// The paper's degree figure for the natural labeling (6k+4); our measured
/// degree is at most 5k+5. Both are reported by the degree-bound table bench.
std::uint64_t ft_se_natural_degree_bound_paper(unsigned k);
std::uint64_t ft_se_natural_degree_bound_ours(unsigned k);

/// Full reconfiguration: given faults on the FT machine, produce the map
/// SE_h -> surviving physical nodes (phi o sigma). Returns nullopt when more
/// than k faults were supplied.
std::optional<Embedding> reconfigure(const FtShuffleExchange& machine, const FaultSet& faults);

}  // namespace ftdb
