// (k, G)-tolerance checking — the executable form of Theorems 1 and 2.
//
// A graph G' is (k, G)-tolerant when for *every* set W of |V(G')| - k
// surviving nodes, the induced subgraph contains G. For the paper's
// constructions the witness embedding is always the monotone rank embedding,
// so the check is: for every fault set F (|F| <= k) and every edge (x, y) of
// G, (phi(x), phi(y)) must be an edge of G'. We provide a pairwise proof that
// covers every fault set at once, an exhaustive checker (all C(N+k, k) fault
// sets) that serves as its reference on small instances, and a general
// checker that uses VF2 search instead of the monotone witness (for
// baselines with different reconfiguration).
//
// The pairwise proof. Let G' have at least N + k nodes and take a target edge
// (x, y) with x < y and a fault set F with |F| <= k. The witness maps
// phi(x) = x + a and phi(y) = y + b with 0 <= a <= b <= k, because the
// offsets count the faults below the image and never decrease. Every such
// pair occurs: the faults {0..a-1} and {x+a+1..x+b} (b faults in all) give
// exactly phi(x) = x + a and phi(y) = y + b. So the witness survives every
// fault set of size <= k iff, for every target edge (x, y) and every
// a in [0, k], the neighbours of x + a in G' contain the whole run
// y + a, ..., y + k. Sorted, duplicate-free adjacency makes each (edge, a)
// one lower_bound and one indexed compare: O(|E| k log d) for all C(N+k, k)
// fault sets together.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/embedding.hpp"
#include "graph/graph.hpp"
#include "ft/reconfigure.hpp"

namespace ftdb {

/// Verifies the monotone witness for one fault set. Returns true when every
/// target edge survives; on failure optionally reports the first violated
/// target edge through `violation`.
bool monotone_embedding_survives(const Graph& target, const Graph& ft_graph,
                                 const FaultSet& faults, Edge* violation = nullptr);

struct ToleranceReport {
  bool tolerant = true;
  std::uint64_t fault_sets_checked = 0;
  /// First failing fault set, if any.
  std::vector<NodeId> counterexample_faults;
  Edge violated_edge{};
};

/// Exhaustively enumerates every fault set of size exactly `k` (fault sets of
/// smaller size are dominated: the paper's definition removes exactly k nodes,
/// and tolerating k faults implies tolerating fewer because the monotone
/// embedding of a sub-fault-set uses a subset of the offsets — we still expose
/// `check_all_sizes` to test that claim directly).
ToleranceReport check_tolerance_exhaustive(const Graph& target, const Graph& ft_graph,
                                           unsigned k, bool check_all_sizes = false);

/// The pairwise proof (see the header comment): decides, without enumerating
/// fault sets, whether the monotone witness survives every fault set of size
/// <= k. `tolerant` equals check_tolerance_exhaustive(target, ft_graph, k,
/// true).tolerant. On failure the counterexample has at most k faults and
/// maps `violated_edge` onto a non-edge (or, when G' has fewer than N + k
/// nodes, leaves fewer than N survivors and reports {kInvalidNode,
/// kInvalidNode}). fault_sets_checked stays 0: no fault set is enumerated.
ToleranceReport check_tolerance_pairwise(const Graph& target, const Graph& ft_graph, unsigned k);

/// Generic tolerance check via subgraph-monomorphism search (no assumption on
/// the reconfiguration strategy). Exponential in the worst case; used for the
/// digit-copies baseline and for cross-validating the monotone witness on
/// small instances.
ToleranceReport check_tolerance_exhaustive_vf2(const Graph& target, const Graph& ft_graph,
                                               unsigned k,
                                               const EmbeddingSearchOptions& options = {});

/// Enumerates k-subsets of {0..n-1} in lexicographic order, invoking
/// `visit(subset)`; stops early when visit returns false. Exposed for tests
/// and experiment harnesses.
void for_each_fault_set(std::size_t n, unsigned k,
                        const std::function<bool(const std::vector<NodeId>&)>& visit);

/// C(n, k) in 64 bits (throws on overflow) — used to size exhaustive runs.
std::uint64_t binomial(std::uint64_t n, std::uint64_t k);

}  // namespace ftdb
