// The reconfiguration algorithm of Section III.A.
//
// Given the fault-tolerant graph on N + k nodes and a set of at most k faulty
// nodes, the algorithm maps node x of the target graph to the (x+1)-st
// non-faulty node — the unique monotonically increasing bijection from
// {0..N-1} onto the survivors. The per-node offset delta(x) = phi(x) - x lies
// in [0, k] and is non-decreasing (Lemma 1), which is exactly what the extra
// offsets of B^k_{m,h} absorb.
#pragma once

#include <cstdint>
#include <vector>

#include "ft/rng.hpp"
#include "graph/graph.hpp"

namespace ftdb {

/// A set of faulty node ids within a graph of `universe` nodes. Normalized:
/// sorted, unique, all < universe.
class FaultSet {
 public:
  FaultSet() = default;
  FaultSet(std::size_t universe, std::vector<NodeId> faulty);

  /// k faults drawn uniformly without replacement (deterministic given rng).
  static FaultSet random(std::size_t universe, std::size_t count, SplitMix64& rng);

  std::size_t universe() const { return universe_; }
  std::size_t count() const { return faulty_.size(); }
  const std::vector<NodeId>& nodes() const { return faulty_; }
  bool is_faulty(NodeId v) const;

  /// The survivors, in increasing order.
  std::vector<NodeId> survivors() const;

 private:
  std::size_t universe_ = 0;
  std::vector<NodeId> faulty_;
};

/// The monotone rank embedding phi : {0..N-1} -> survivors, where
/// N = universe - |faults|. phi[x] is the (x+1)-st surviving node. The result
/// is an `Embedding` in the sense of graph/embedding.hpp.
std::vector<NodeId> monotone_embedding(const FaultSet& faults);

/// delta(x) = phi(x) - x for the monotone embedding; each entry is in
/// [0, |faults|] and the sequence is non-decreasing (Lemma 1).
std::vector<std::uint32_t> embedding_offsets(const std::vector<NodeId>& phi);

/// Inverse map: survivor physical id -> logical target id (kInvalidNode for
/// faulty nodes). `universe` is the fault-tolerant graph's node count.
std::vector<NodeId> inverse_embedding(const std::vector<NodeId>& phi, std::size_t universe);

}  // namespace ftdb
