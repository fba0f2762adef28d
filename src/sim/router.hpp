// Unified routing engine for the simulated machines.
//
// Every consumer of next-hop routing (the packet engine, reconfigured-machine
// routing, the campaign stretch metric, the routing benches) talks to one
// `Router` interface, behind which three interchangeable backends implement
// the *same* canonical policy — shortest paths stepped through the lowest-id
// closer neighbor (graph/algorithms.hpp:canonical_descent_step). Because the
// policy is shared, the backends are hop-for-hop identical wherever they are
// all applicable, and differ only in cost:
//
//  * ImplicitRouter   — O(1) memory, O(h^2) next-hop. Pure label algebra for
//                       de Bruijn B_{m,h} and shuffle-exchange SE_h shapes
//                       (exact undirected distances from topology/debruijn
//                       and topology/shuffle_exchange). Valid on the healthy
//                       machines and, composed with the monotone relabeling
//                       of ft/reconfigure, on any reconfigured machine whose
//                       live logical graph came out dilation-1 — routing in
//                       logical space is exactly what survives
//                       reconfiguration unchanged. This is what lets traffic
//                       simulation and campaign sweeps run at N = 2^18..2^20,
//                       where a table slab would be gigabytes.
//  * CompressedRouter — destination-class sharing via shape-delta encoding
//                       for graphs that sit inside a de Bruijn /
//                       shuffle-exchange reference shape (every adjacency a
//                       subset of the algebraic one — the degraded-machine
//                       case): all destinations share the reference algebra
//                       and only the (dest, node) pairs whose exact BFS
//                       distance deviates from it are stored: O(N + E +
//                       exceptions) memory, with exceptions measured at a few
//                       * f * h per node for f faults (0 on a healthy shape).
//                       Any other graph is rejected at construction.
//  * TableRouter      — O(N^2) memory, O(1) next-hop. A per-destination BFS
//                       slab of uint16 adjacency ports with uint16
//                       distances, kept as the general fallback and the
//                       oracle the others are tested against.
//
// make_router() picks automatically: the table for any graph below
// kImplicitMinNodes; at or above it, implicit when the graph *is* a de Bruijn
// / shuffle-exchange shape (shape detection is O(N * m)), compressed when it
// sits inside one, table otherwise.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "topology/debruijn.hpp"

namespace ftdb::sim {

enum class RouterBackend { Table, Compressed, Implicit };

const char* router_backend_name(RouterBackend backend);

/// Caller-carried memo for one in-flight packet's routing state, filled by
/// the hinted route_many overload. Self-validating: a hint is consulted only
/// when its (dest, node) matches the query, so zero-initialized or stale
/// hints are always safe — they just cost a fresh scan. Callers that keep
/// one RouteHint per packet across cycles turn the implicit backend's
/// per-hop work into a single adjacent-offset check (the witness, distance
/// and optimal-offset mask ride along with the packet).
struct RouteHint {
  NodeId dest = kInvalidNode;
  NodeId node = kInvalidNode;
  std::uint32_t dist = 0;
  std::int32_t wit = 0;
  std::uint64_t opt = 0;
};

/// The routing interface. All queries are in the logical node space of the
/// graph the router was built for; `Machine::to_physical` composes the
/// physical relabeling on top (see sim/reconfigured_routing.hpp).
class Router {
 public:
  virtual ~Router() = default;

  virtual RouterBackend backend() const = 0;
  virtual std::size_t num_nodes() const = 0;

  /// Canonical next hop from `node` towards `dest`: the lowest-id neighbor
  /// strictly closer to dest. Returns `dest` when node == dest and
  /// kInvalidNode when dest is unreachable from node.
  virtual NodeId next_hop(NodeId dest, NodeId node) const = 0;

  /// Hop count, or uint32(-1) when unreachable (the BFS convention).
  virtual std::uint32_t distance(NodeId dest, NodeId node) const = 0;

  /// Batched next hops: out[i] = next_hop(dests[i], nodes[i]), the scalar
  /// loop. Spans must have equal length (throws std::invalid_argument
  /// otherwise).
  void route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                  std::span<NodeId> out) const;

  /// route_many with caller-carried per-packet state: hints[i] is consulted
  /// when it matches (dests[i], nodes[i]) and rewritten with the state of
  /// the answered hop, so re-presenting the same packet one hop later skips
  /// the fresh scan entirely. Results are hop-for-hop identical to the
  /// hint-less overload; only ImplicitRouter has incremental state, the
  /// other backends ignore the hints. `hints` must match the query length.
  virtual void route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                          std::span<NodeId> out, std::span<RouteHint> hints) const;

  /// Batched distances: out[i] = distance(dests[i], nodes[i]), the scalar
  /// loop; same span contract as route_many.
  void distance_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                     std::span<std::uint32_t> out) const;

  virtual bool reachable(NodeId dest, NodeId node) const {
    return distance(dest, node) != static_cast<std::uint32_t>(-1);
  }

  /// Heap bytes owned by the backend — the memory story the backends trade
  /// against lookup latency (0 for the implicit backend).
  virtual std::size_t memory_bytes() const = 0;

  /// Full canonical path node -> dest (inclusive); empty when unreachable.
  /// Identical across backends by the shared policy (ImplicitRouter and
  /// CompressedRouter walk it with the witness-chained stepper instead of
  /// per-hop full scans).
  virtual std::vector<NodeId> path(NodeId from, NodeId dest) const;
};

/// Dense next-hop tables (general fallback and test oracle): next_hop(dest,
/// node) is read straight out of an N^2 slab, filled by one BFS per
/// destination that also picks each node's lowest-id closer neighbor. Each
/// entry is a uint16 *port* — the index of the canonical next hop in node's
/// sorted adjacency — so the packet engine turns it into a link id with one
/// add, and next_hop resolves it through the router's own copy of the
/// adjacency. Distances live in a second uint16 slab: 4 * N^2 bytes in all,
/// intended for the simulator's N <= a few thousand. Hop counts on these
/// machines are tiny; the constructor throws std::length_error if a graph
/// ever exceeds 65534 hops rather than wrapping, and refuses a graph of
/// degree 0xffff or more (its ports would not fit) before allocating a slab.
class TableRouter final : public Router {
 public:
  /// The port of a self or unreachable (dest, node) entry.
  static constexpr std::uint16_t kNoPort = 0xffff;

  explicit TableRouter(const Graph& g);

  RouterBackend backend() const override { return RouterBackend::Table; }
  std::size_t num_nodes() const override { return n_; }
  NodeId next_hop(NodeId dest, NodeId node) const override {
    const std::uint16_t port = next_port(dest, node);
    if (port == kNoPort) return node == dest ? dest : kInvalidNode;
    return graph_.neighbors(node)[port];
  }
  /// Index of next_hop(dest, node) in node's sorted adjacency, or kNoPort
  /// when node == dest or dest is unreachable from node.
  std::uint16_t next_port(NodeId dest, NodeId node) const { return port_[index(dest, node)]; }
  /// Hop count, or uint32(-1) when unreachable (the sentinel is widened from
  /// the internal uint16).
  std::uint32_t distance(NodeId dest, NodeId node) const override {
    const std::uint16_t d = dist_[index(dest, node)];
    return d == kNoPath ? static_cast<std::uint32_t>(-1) : d;
  }
  bool reachable(NodeId dest, NodeId node) const override {
    return dist_[index(dest, node)] != kNoPath;
  }
  /// The two slabs plus the adjacency copy next_hop resolves ports through.
  std::size_t memory_bytes() const override {
    return n_ * n_ * 2 * sizeof(std::uint16_t) + (n_ + 1) * sizeof(std::size_t) +
           2 * graph_.num_edges() * sizeof(NodeId);
  }

 private:
  static constexpr std::uint16_t kNoPath = 0xffff;

  std::size_t index(NodeId dest, NodeId node) const {
    return static_cast<std::size_t>(dest) * n_ + node;
  }

  std::size_t n_;
  Graph graph_;
  std::vector<std::uint16_t> port_;
  std::vector<std::uint16_t> dist_;
};

/// Exact canonical routing with destination-class sharing by shape-delta
/// encoding: the graph's adjacencies are all subsets of a reference B_{m,h} /
/// SE_h (h >= 2) on the same node count. Every destination shares the
/// reference's algebraic distance; only the pairs whose exact BFS distance
/// deviates (fault detours, unreachable rows) are stored in a per-node
/// exception table. Correctness never depends on the reference — exceptions
/// record the exact value wherever the algebra is wrong. Queries walk the
/// reference's distance stepper (as ImplicitRouter::path does) and consult
/// the exception table before each probe.
///
/// The router supports *incremental* maintenance for the degraded-machine
/// lifecycle (reference shape minus a set of failed nodes):
/// `apply_fault` / `retract_fault` patch the exception table in place
/// instead of re-running the per-destination BFS rebuild. A fault runs a
/// Ramalingam–Reps affected-set sweep per destination, reading the closed
/// 2-hop ball of the fault from exact BFS rows; a repair applies the
/// insertion formula new(u, d) = min(old(u, d), d(u, v) + d(v, d)) to the
/// existing exceptions in one pass. The patched state is canonical —
/// bit-identical to a from-scratch build over the same degraded graph — which
/// is what the serving layer's equivalence oracle asserts.
class CompressedRouter final : public Router {
 public:
  /// Throws std::invalid_argument unless `g` sits inside a B_{m,h} or SE_h
  /// reference shape on its node count.
  explicit CompressedRouter(const Graph& g);

  RouterBackend backend() const override { return RouterBackend::Compressed; }
  std::size_t num_nodes() const override { return n_; }
  NodeId next_hop(NodeId dest, NodeId node) const override;
  /// O(log exceptions) lookup, else the reference algebra.
  std::uint32_t distance(NodeId dest, NodeId node) const override;
  bool reachable(NodeId dest, NodeId node) const override {
    return distance(dest, node) != static_cast<std::uint32_t>(-1);
  }
  std::size_t memory_bytes() const override;
  /// One stepper walk: the probes carry the reference witness from hop to
  /// hop instead of evaluating the algebra afresh per hop.
  std::vector<NodeId> path(NodeId from, NodeId dest) const override;

  std::size_t num_exceptions() const { return exception_dest_.size(); }

  /// Observable size/shape facts, so the serving layer and the benches can
  /// assert the ~f*h per-node exception-growth bound instead of guessing.
  struct Stats {
    std::size_t exception_entries = 0;  // (node, dest) pairs stored
    std::size_t bytes = 0;              // == memory_bytes()
    const char* reference = "";         // "debruijn" | "shuffle_exchange"
    std::uint64_t reference_base = 0;   // m of the reference B_{m,h} (0 for SE)
    unsigned reference_digits = 0;      // h of the reference shape
    std::size_t tracked_faults = 0;     // faults applied through apply_fault
    std::uint64_t state_hash = 0;       // FNV-1a over the exception arrays
  };
  Stats stats() const;

  /// Incrementally retires node `v`: removes its edges from the routed graph
  /// and patches the exception table so the router is exactly the router of
  /// the degraded graph. Throws std::invalid_argument when `v` is out of
  /// range or already retired. Cost is one BFS batch per 64 nodes of v's
  /// 2-hop ball plus, per destination, the probes of the pairs whose
  /// distance grows; versus the O(N * (N + E)) from-scratch rebuild.
  void apply_fault(NodeId v);

  /// Reverses `apply_fault(v)`: restores v's reference-shape edges towards
  /// every non-retired neighbor and retracts the now-stale exceptions.
  /// Throws std::invalid_argument when `v` is not currently retired. Cost is
  /// two BFS from v plus one pass over the exceptions, with a reference
  /// evaluation per improved entry above the diagonal.
  void retract_fault(NodeId v);

  /// Faults applied through apply_fault and not yet retracted, sorted.
  /// (Nodes that were already isolated in the constructor's graph are adopted
  /// as retired, so a router built from a degraded graph is repairable too.)
  const std::vector<NodeId>& tracked_faults() const { return faulty_; }

 private:
  enum class Reference { DeBruijn, ShuffleExchange };

  struct DistDelta {
    NodeId node;
    NodeId dest;
    std::uint32_t dist;  // new exact distance (may be unreachable)
  };

  std::uint32_t reference_distance(NodeId dest, NodeId node) const;
  /// The stored exact distance of (dest, node), or null when the pair
  /// follows the reference.
  const std::uint32_t* exception_of(NodeId dest, NodeId node) const;
  /// The canonical descent from `from` to `dest` on the reference stepper of
  /// `Ops`: appends the whole path to `route`, or returns the first hop when
  /// `route` is null. kInvalidNode when dest is unreachable.
  template <class Ops>
  NodeId walk(const Ops& ops, NodeId from, NodeId dest, std::vector<NodeId>* route) const;
  void reference_neighbors(NodeId x, std::vector<NodeId>& out) const;
  void merge_deltas(std::vector<DistDelta>& deltas);
  void rebuild_graph(NodeId v, const std::vector<NodeId>& add_neighbors, bool removing);

  std::size_t n_ = 0;
  Reference reference_ = Reference::DeBruijn;
  DeBruijnParams db_{};
  unsigned se_h_ = 0;

  // The graph (for the canonical descent) plus the per-node exception CSR,
  // sorted by destination.
  Graph graph_;
  std::vector<NodeId> faulty_;  // nodes retired via apply_fault, sorted
  std::vector<std::size_t> exception_offsets_;
  std::vector<NodeId> exception_dest_;
  std::vector<std::uint32_t> exception_dist_;
};

/// O(1)-memory algebraic routing for de Bruijn / shuffle-exchange shapes:
/// distances come from the exact label formulas, next hops from probing the
/// (sorted) algebraic neighbors through the same canonical rule. The probes
/// run on the incremental distance steppers (topology/*): a success-exit
/// capped scan per neighbor, hinted by the current node's alignment witness,
/// instead of a fresh O(h^2) scan each. The hinted route_many and path()
/// carry the witness across hops, in the caller's RouteHint array and along
/// the walk respectively; the router itself holds no per-query state.
class ImplicitRouter final : public Router {
 public:
  static ImplicitRouter for_debruijn(const DeBruijnParams& params);
  static ImplicitRouter for_shuffle_exchange(unsigned h);

  RouterBackend backend() const override { return RouterBackend::Implicit; }
  std::size_t num_nodes() const override { return static_cast<std::size_t>(n_); }
  NodeId next_hop(NodeId dest, NodeId node) const override;
  std::uint32_t distance(NodeId dest, NodeId node) const override;
  using Router::route_many;
  void route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                  std::span<NodeId> out, std::span<RouteHint> hints) const override;
  std::vector<NodeId> path(NodeId from, NodeId dest) const override;
  bool reachable(NodeId dest, NodeId node) const override {
    return node < n_ && dest < n_;  // both shapes are connected
  }
  std::size_t memory_bytes() const override { return 0; }

 private:
  enum class Shape { DeBruijn, ShuffleExchange };

  ImplicitRouter(Shape shape, DeBruijnParams db, unsigned se_h, std::uint64_t n);

  NodeId next_hop_wide(NodeId dest, NodeId node) const;

  Shape shape_;
  DeBruijnParams db_{};
  unsigned se_h_ = 0;
  std::uint64_t n_ = 0;
};

/// Auto's size rule: below this node count the table slab is cheap, so Auto
/// picks the table (O(1) lookups, identical canonical hops) for *every* graph
/// — shaped, degraded or neither. On a degraded B_{2,h} the table also builds
/// over 2x faster than the compressed router.
inline constexpr std::size_t kImplicitMinNodes = std::size_t{1} << 12;

struct RouterOptions {
  enum class Backend { Auto, Table, Compressed, Implicit };
  /// Forcing a backend bypasses the Auto policy of make_router.
  Backend backend = Backend::Auto;
};

/// Builds the right router for `g`. Auto order: the table below
/// kImplicitMinNodes (same canonical hops, O(1) lookups, affordable slab);
/// at or above it, implicit for a recognized B_{m,h} / SE_h shape,
/// compressed for a graph inside one (a degraded machine), else table.
/// Forcing Backend::Implicit on a graph of neither shape, or
/// Backend::Compressed on a graph inside neither, throws
/// std::invalid_argument.
std::unique_ptr<Router> make_router(const Graph& g, const RouterOptions& options = {});

}  // namespace ftdb::sim
