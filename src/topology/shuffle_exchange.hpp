// The point-to-point shuffle-exchange network SE_h (Stone [13]).
//
// 2^h nodes labelled with h-bit strings. Edges:
//   shuffle   — x ~ rotate_left(x)   (cyclic rotation of the bit string)
//   exchange  — x ~ x XOR 1          (flip the least significant bit)
// The undirected shuffle edge also provides the unshuffle (rotate-right)
// connection, so SE_h has degree <= 3.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "topology/distance_witness.hpp"

namespace ftdb {

std::uint64_t shuffle_exchange_num_nodes(unsigned h);

Graph shuffle_exchange_graph(unsigned h);

/// Neighbor along the shuffle edge.
NodeId se_shuffle(NodeId x, unsigned h);
/// Neighbor along the unshuffle direction (inverse rotation).
NodeId se_unshuffle(NodeId x, unsigned h);
/// Neighbor along the exchange edge.
NodeId se_exchange(NodeId x);

/// Sorted unique undirected neighbors of x in SE_h (exchange, shuffle,
/// unshuffle; x itself excluded), written into `out`.
void shuffle_exchange_neighbors(unsigned h, NodeId x, std::vector<NodeId>& out);

/// Exact hop distance between x and y in SE_h from the labels alone, O(h^2):
/// a shortest SE walk is a tour of the rotation cycle Z_h that flips every
/// bit where x disagrees with the (rotation-aligned) destination while the
/// exchange port passes over it. For each final alignment rho, the required
/// flip positions become residues the rotation walk must visit on the
/// integer line; the cheapest one-reversal sweep covering them and ending on
/// rho's residue class gives the rotation cost, plus one hop per flip.
/// Verified hop-exact against BFS for every pair of SE_2..SE_10 in the test
/// suite.
std::uint32_t shuffle_exchange_distance(unsigned h, NodeId x, NodeId y);

/// Incremental distance oracle to a fixed destination in SE_h — the SE
/// counterpart of DebruijnDistanceStepper, with the same protocol: each hop
/// rotates or flips one bit, so the winning rotation alignment shifts by at
/// most one and a hinted capped scan replaces the O(h^2) per-rotation sweep.
class ShuffleExchangeDistanceStepper {
 public:
  ShuffleExchangeDistanceStepper(unsigned h, NodeId dest);

  /// Position at `node` with a full scan; returns d(node, dest).
  std::uint32_t reset(NodeId node);
  /// Re-aim at a new destination keeping the shape plumbing; positional
  /// state is invalid until the next reset()/seed().
  void retarget(NodeId dest);
  /// Restore a previously computed state without scanning (see the de Bruijn
  /// stepper's contract). `opt` is the optimal-rotation mask probe()
  /// reported (0 = unknown; recollected lazily).
  void seed(NodeId node, std::uint32_t dist, const DistanceWitness& witness, std::uint64_t opt);

  /// One neighbor of the current node pre-packaged for probing — same
  /// batching contract as DebruijnDistanceStepper::ProbeNeighbor so the
  /// router's canonical-hop template works on either stepper. SE moves need
  /// no packed label; the hint is the move's rotation remap.
  struct ProbeNeighbor {
    NodeId id;
    int hint;
    int dir;  // 0: exchange, -1: shuffle (rho remaps o -> o-1), +1: unshuffle
  };

  /// Sorted, deduplicated neighbors of the current node (self excluded) with
  /// hints; `out` must hold at least 3 entries. Returns the count.
  int probe_neighbors(ProbeNeighbor* out) const;

  /// d(nb.id, dest) if it is <= cap, else some value > cap, with the winning
  /// rotation as witness. Does not move the stepper. When cap == distance() -
  /// 1 (the router's refutation probe), only the rotations whose image under
  /// the move lies in the current node's optimal set {rho : cost at rotation
  /// rho == distance()} are evaluated; on success the neighbor's own optimal
  /// set is written to *opt_out (bit rho; 0 = unknown).
  std::uint32_t probe(const ProbeNeighbor& nb, std::uint32_t cap, DistanceWitness* witness,
                      std::uint64_t* opt_out = nullptr) const;

  NodeId node() const { return node_; }
  NodeId dest() const { return dest_; }
  std::uint32_t distance() const { return dist_; }

 private:
  void collect_opt() const;

  std::uint64_t n_ = 0;
  NodeId dest_ = 0;
  NodeId node_ = kInvalidNode;
  std::uint32_t dist_ = 0;
  DistanceWitness wit_{};
  // Optimal-rotation mask for the current node (bit rho), maintained lazily:
  // cleared by reset() or a seed without one, recollected on the next
  // refutation probe.
  mutable std::uint64_t opt_ = 0;
  mutable bool opt_valid_ = false;
  int h_ = 0;
};

/// Recognizes a shuffle-exchange shape: the h with g exactly equal to SE_h,
/// or nullopt. The router layer's counterpart to debruijn_shape_of.
std::optional<unsigned> shuffle_exchange_shape_of(const Graph& g);

}  // namespace ftdb
