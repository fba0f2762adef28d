// The de Bruijn target graphs of Sections III and IV.
//
// B_{m,h} has m^h nodes labelled with h-digit base-m strings; (x, y) is an
// edge iff the digit strings overlap in h-1 positions (digit-shift
// definition), equivalently iff y = X(x, m, r, m^h) or x = X(y, m, r, m^h)
// for some r in {0..m-1} (algebraic definition, the one the fault-tolerant
// construction generalizes). Both generators are provided; tests assert they
// produce identical graphs.
#pragma once

#include <optional>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "topology/distance_witness.hpp"

namespace ftdb {

struct DeBruijnParams {
  std::uint64_t base = 2;  // m >= 2
  unsigned digits = 3;     // h >= 1 (the paper assumes h >= 3; smaller h is
                           // permitted here and exercised in tests)
};

/// Number of nodes m^h (throws on overflow / invalid parameters).
std::uint64_t debruijn_num_nodes(const DeBruijnParams& params);

/// Digit-shift definition: x ~ [x_{h-2},...,x_0,r] and x ~ [r,x_{h-1},...,x_1].
Graph debruijn_graph_digit_definition(const DeBruijnParams& params);

/// Algebraic definition via X(z,m,r,s) = (z*m + r) mod s with s = m^h.
Graph debruijn_graph(const DeBruijnParams& params);

/// The base-2 shorthand B_{2,h} used throughout Section III.
Graph debruijn_base2(unsigned h);

/// Out-neighbors under the *directed* interpretation (x -> (x*m + r) mod m^h),
/// used by the shift-register routing algorithm in the simulator.
std::vector<NodeId> debruijn_out_neighbors(const DeBruijnParams& params, NodeId x);

/// The classical de Bruijn digraph: m^h nodes, arc x -> (x*m + r) mod m^h for
/// every digit r (self-loops included — they are real shift transitions, and
/// they make the digraph Eulerian, which is what de Bruijn sequences need).
Digraph debruijn_digraph(std::uint64_t m, unsigned h);

/// Sorted unique undirected neighbors of x in B_{m,h} (left and right digit
/// shifts, x itself excluded), written into `out`. Reusing `out` across calls
/// makes the enumeration allocation-free after warm-up — this is the
/// implicit router's inner loop.
void debruijn_neighbors(const DeBruijnParams& params, NodeId x, std::vector<NodeId>& out);

/// Exact hop distance between x and y in the *undirected* B_{m,h}, computed
/// from the labels alone in O(h^2) — no graph, no BFS. Undirected shortest
/// paths may mix left and right shifts, so this is genuinely shorter than the
/// paper's left-shift route for many pairs. The digit strings are windows on
/// a tape: a left shift slides the window right, a right shift slides it
/// left, and every freshly exposed digit is free. A walk with running maximum
/// M, minimum mu and endpoint f preserves exactly the tape interval
/// [M, mu+h-1], so d(x,y) is the minimum of 2(M - mu) - |f| over all window
/// offsets f and all ways of pushing the mismatched positions out of the
/// preserved interval. Verified hop-exact against BFS for every pair of every
/// B_{m,h} with m in {2,3,4} in the test suite.
std::uint32_t debruijn_distance(const DeBruijnParams& params, NodeId x, NodeId y);

/// Incremental distance oracle to a fixed destination — the route-following
/// hot path behind ImplicitRouter. Maintains the current node's packed digit
/// label (base-2 labels are their own packing; 2 < m <= 16 packs one digit
/// per nibble) and the witness of the winning window alignment, so probing a
/// neighbor costs O(h): each hop shifts one digit, the packed label updates
/// with one shift-and-or, and the hinted offset usually proves the bound
/// immediately. Capped scans stop as soon as the triangle-inequality floor
/// (dist-1) is met or every remaining offset is provably worse. Shapes
/// outside the packed range (m > 16, or m > 2 with 4h > 64) fall back to the
/// exact O(h^2) formula — identical results, no witness acceleration.
///
/// One protocol: position with reset() (full scan) or seed() (a state an
/// earlier probe() returned), enumerate the current node's neighbors with
/// probe_neighbors(), test them with probe(), and move by seeding the chosen
/// neighbor's (dist, witness, opt).
class DebruijnDistanceStepper {
 public:
  DebruijnDistanceStepper(const DeBruijnParams& params, NodeId dest);

  /// Position at `node` with a full scan; returns d(node, dest).
  std::uint32_t reset(NodeId node);
  /// Re-aim at a new destination keeping the shape plumbing (one label pack
  /// instead of a full reconstruction — the batched router's per-item path).
  /// Positional state is invalid until the next reset()/seed().
  void retarget(NodeId dest);
  /// Restore a previously computed state without scanning. `dist`, `witness`
  /// and `opt` must come from an earlier scan of the same (node, dest) pair:
  /// a probe() of node, or a memoized hint. `opt` is the optimal-offset mask
  /// probe() reported (0 = unknown; recollected lazily). Garbage in, garbage
  /// out.
  void seed(NodeId node, std::uint32_t dist, const DistanceWitness& witness, std::uint64_t opt);

  /// One algebraic neighbor of the current node, pre-packaged for probing:
  /// id, packed label, and hinted window offset. probe_neighbors() builds
  /// these once per hop from the current packed label; probe() then scans
  /// with no per-probe shift classification — the modular divisions are paid
  /// once per hop instead of once per probe.
  struct ProbeNeighbor {
    NodeId id;
    std::uint64_t packed;
    int hint;
    int dir;  // -1: left shift (node*m+r mod n), +1: right shift
  };

  /// Sorted, deduplicated algebraic neighbors of the current node (self
  /// excluded) with packed labels and hints. `out` must hold at least
  /// 2*base entries. Returns the count.
  int probe_neighbors(ProbeNeighbor* out) const;

  /// d(nb.id, dest) if it is <= cap, else some value > cap, with the winning
  /// witness (meaningful only when the result is <= cap). Does not move the
  /// stepper. When cap == distance() - 1 (the router's refutation probe) in
  /// packed mode, only the window offsets adjacent to the current node's
  /// optimal set {f : cost at offset f == distance()} are evaluated (usually
  /// one); on success the neighbor's own optimal set is written to *opt_out
  /// (bit f + h; 0 = unknown).
  std::uint32_t probe(const ProbeNeighbor& nb, std::uint32_t cap, DistanceWitness* witness,
                      std::uint64_t* opt_out = nullptr) const;

  NodeId node() const { return node_; }
  NodeId dest() const { return dest_; }
  std::uint32_t distance() const { return dist_; }

 private:
  enum class Mode : std::uint8_t { kBits, kNibbles, kGeneric };
  void collect_opt() const;

  DeBruijnParams params_;
  std::uint64_t n_ = 0;
  std::uint64_t high_ = 0;  // m^{h-1}
  std::uint64_t py_ = 0;    // packed dest label
  std::uint64_t px_ = 0;    // packed current label
  std::uint64_t lane_ = 0;  // low h*digit_bits bits
  NodeId dest_ = 0;
  NodeId node_ = kInvalidNode;
  std::uint32_t dist_ = 0;
  DistanceWitness wit_{};
  // Optimal-offset mask for the current node (bit f + h_), maintained lazily:
  // seed() carries a probe's mask forward, and reset() or a seed without one
  // clears opt_valid_ — the next refutation probe recollects in O(dist)
  // evaluations.
  mutable std::uint64_t opt_ = 0;
  mutable bool opt_valid_ = false;
  bool use_opt_ = false;  // packed mode and h <= 31 (mask fits 2h+1 bits)
  int h_ = 0;
  int db_ = 1;  // bits per packed digit: 1 (base 2) or 4 (m <= 16)
  Mode mode_ = Mode::kGeneric;
};

/// The exact integer h-th root: the m >= 2 with m^h == n, or 0 when none
/// exists. Shared by every shape search that enumerates (m, h) candidates.
std::uint64_t debruijn_exact_root(std::uint64_t n, unsigned h);

/// Recognizes a de Bruijn shape: the (m, h) with g exactly equal to B_{m,h}
/// (node count m^h and every adjacency list algebraic), or nullopt. O(N * m)
/// per candidate factorization of N — cheap enough to run per simulation.
/// This is what lets the router layer pick the O(1)-memory implicit backend
/// automatically, including on reconfigured machines whose live logical graph
/// came out dilation-1.
std::optional<DeBruijnParams> debruijn_shape_of(const Graph& g);

}  // namespace ftdb
