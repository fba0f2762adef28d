#include "sim/router.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {

const char* router_backend_name(RouterBackend backend) {
  switch (backend) {
    case RouterBackend::Table: return "table";
    case RouterBackend::Compressed: return "compressed";
    case RouterBackend::Implicit: return "implicit";
  }
  return "?";
}

std::vector<NodeId> Router::path(NodeId from, NodeId dest) const {
  if (!reachable(dest, from)) return {};
  std::vector<NodeId> route{from};
  NodeId cur = from;
  while (cur != dest) {
    cur = next_hop(dest, cur);
    route.push_back(cur);
  }
  return route;
}

namespace {

void check_batch_spans(std::size_t dests, std::size_t nodes, std::size_t out) {
  if (dests != nodes || dests != out) {
    throw std::invalid_argument("Router batch query: span sizes differ");
  }
}

}  // namespace

void Router::route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                        std::span<NodeId> out) const {
  check_batch_spans(dests.size(), nodes.size(), out.size());
  for (std::size_t i = 0; i < dests.size(); ++i) out[i] = next_hop(dests[i], nodes[i]);
}

void Router::route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                        std::span<NodeId> out, std::span<RouteHint> hints) const {
  check_batch_spans(dests.size(), nodes.size(), out.size());
  if (hints.size() != dests.size()) {
    throw std::invalid_argument("Router batch query: hint span size differs");
  }
  route_many(dests, nodes, out);  // backends without incremental state ignore hints
}

void Router::distance_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                           std::span<std::uint32_t> out) const {
  check_batch_spans(dests.size(), nodes.size(), out.size());
  for (std::size_t i = 0; i < dests.size(); ++i) out[i] = distance(dests[i], nodes[i]);
}

// --- CompressedRouter --------------------------------------------------------

namespace {

/// Reusable dest-rooted BFS into `row` (kUnreachable sentinel). The neighbor
/// source is a functor so the same sweep serves the graph's CSR and the
/// algebraic reference shapes.
template <class ForEachNeighbor>
void bfs_row(NodeId dest, std::vector<std::uint32_t>& row, std::vector<NodeId>& cur,
             std::vector<NodeId>& next, ForEachNeighbor&& for_each_neighbor) {
  std::fill(row.begin(), row.end(), kUnreachable);
  row[dest] = 0;
  cur.assign(1, dest);
  std::uint32_t level = 0;
  while (!cur.empty()) {
    ++level;
    next.clear();
    for (const NodeId u : cur) {
      for_each_neighbor(u, [&](NodeId v) {
        if (row[v] == kUnreachable) {
          row[v] = level;
          next.push_back(v);
        }
      });
    }
    cur.swap(next);
  }
}

/// bfs_row over the graph's own adjacency.
void bfs_row_graph(const Graph& g, NodeId dest, std::vector<std::uint32_t>& row,
                   std::vector<NodeId>& cur, std::vector<NodeId>& next) {
  bfs_row(dest, row, cur, next, [&](NodeId u, auto&& visit) {
    for (const NodeId v : g.neighbors(u)) visit(v);
  });
}

/// True when every adjacency list of g is a subset of the shape's algebraic
/// one — the condition under which the shape's distances are a sharable
/// reference (deviations can only be sparse detours around the holes).
template <class NeighborsOf>
bool subgraph_of_shape(const Graph& g, NeighborsOf&& neighbors_of) {
  std::vector<NodeId> expected;
  for (std::size_t x = 0; x < g.num_nodes(); ++x) {
    neighbors_of(static_cast<NodeId>(x), expected);
    const auto actual = g.neighbors(static_cast<NodeId>(x));
    if (!std::includes(expected.begin(), expected.end(), actual.begin(), actual.end())) {
      return false;
    }
  }
  return true;
}

/// A B_{m,h} (debruijn) or SE_h reference shape.
struct ReferenceShape {
  bool debruijn = false;
  DeBruijnParams db{};
  unsigned se_h = 0;
};

/// The reference shape whose algebraic adjacency contains every adjacency
/// of g: any (m, h >= 2) factorization of N whose B_{m,h} contains g, else
/// SE_h. h = 1 (the complete graph) is excluded — every graph embeds in K_N,
/// but K_N's algebra shares nothing useful. Empty when neither fits. Both
/// make_router's Auto rule and the CompressedRouter constructor ask this.
std::optional<ReferenceShape> reference_shape_of(const Graph& g) {
  const std::size_t n = g.num_nodes();
  for (unsigned h = 63; h >= 2; --h) {
    const std::uint64_t m = debruijn_exact_root(n, h);
    if (m == 0) continue;
    const DeBruijnParams params{.base = m, .digits = h};
    if (subgraph_of_shape(
            g, [&](NodeId x, std::vector<NodeId>& out) { debruijn_neighbors(params, x, out); })) {
      return ReferenceShape{.debruijn = true, .db = params};
    }
  }
  if (n >= 4 && (n & (n - 1)) == 0) {
    const auto h = static_cast<unsigned>(std::countr_zero(static_cast<std::uint64_t>(n)));
    if (subgraph_of_shape(g, [&](NodeId x, std::vector<NodeId>& out) {
          shuffle_exchange_neighbors(h, x, out);
        })) {
      return ReferenceShape{.se_h = h};
    }
  }
  return std::nullopt;
}

}  // namespace

TableRouter::TableRouter(const Graph& g)
    : n_(g.num_nodes()), table_(n_ * n_, kInvalidNode), dist_(n_ * n_, kNoPath) {
  // BFS from each destination, writing straight into this destination's slab
  // row, then one canonical-descent pass assigning every node its lowest-id
  // closer neighbor.
  std::vector<NodeId> cur, next;
  for (std::size_t dest = 0; dest < n_; ++dest) {
    const std::size_t base = dest * n_;
    dist_[base + dest] = 0;
    table_[base + dest] = static_cast<NodeId>(dest);
    cur.assign(1, static_cast<NodeId>(dest));
    std::uint16_t level = 0;
    while (!cur.empty()) {
      if (level == kNoPath - 1) {
        throw std::length_error("TableRouter: distance exceeds the uint16 slab");
      }
      ++level;
      next.clear();
      for (const NodeId u : cur) {
        for (const NodeId v : g.neighbors(u)) {
          if (dist_[base + v] == kNoPath) {
            dist_[base + v] = level;
            next.push_back(v);
          }
        }
      }
      cur.swap(next);
    }
    const auto dist_of = [&](NodeId w) { return static_cast<std::uint32_t>(dist_[base + w]); };
    for (std::size_t v = 0; v < n_; ++v) {
      if (v == dest || dist_[base + v] == kNoPath) continue;
      table_[base + v] = canonical_descent_step(g, static_cast<NodeId>(v), dist_of);
    }
  }
}

CompressedRouter::CompressedRouter(const Graph& g) : n_(g.num_nodes()), graph_(g) {
  const std::optional<ReferenceShape> shape = reference_shape_of(g);
  if (!shape) {
    throw std::invalid_argument(
        "CompressedRouter: graph is not inside a de Bruijn or shuffle-exchange shape");
  }
  reference_ = shape->debruijn ? Reference::DeBruijn : Reference::ShuffleExchange;
  db_ = shape->db;
  se_h_ = shape->se_h;

  // Per destination, diff the exact BFS row against a BFS of the reference
  // shape (cheaper than N evaluations of the O(h^2) formula, and provably
  // equal to it); only the deviations are kept. The graph itself is retained
  // for the canonical descent at query time.
  struct RawException {
    NodeId node;
    NodeId dest;
    std::uint32_t dist;
  };
  std::vector<RawException> raw;
  std::vector<std::uint32_t> row(n_), ref_row(n_);
  std::vector<NodeId> cur, next, scratch;
  for (std::size_t dest = 0; dest < n_; ++dest) {
    bfs_row_graph(g, static_cast<NodeId>(dest), row, cur, next);
    // Same BFS over the algebraic adjacency (the shapes are symmetric, so
    // rooting at dest gives distance-to-dest).
    bfs_row(static_cast<NodeId>(dest), ref_row, cur, next, [&](NodeId u, auto&& visit) {
      reference_neighbors(u, scratch);
      for (const NodeId v : scratch) visit(v);
    });
    for (std::size_t v = 0; v < n_; ++v) {
      if (row[v] != ref_row[v]) {
        raw.push_back({static_cast<NodeId>(v), static_cast<NodeId>(dest), row[v]});
      }
    }
  }
  exception_offsets_.assign(n_ + 1, 0);
  for (const RawException& e : raw) ++exception_offsets_[e.node + 1];
  for (std::size_t v = 0; v < n_; ++v) exception_offsets_[v + 1] += exception_offsets_[v];
  exception_dest_.resize(raw.size());
  exception_dist_.resize(raw.size());
  std::vector<std::size_t> cursor(exception_offsets_.begin(), exception_offsets_.end() - 1);
  for (const RawException& e : raw) {  // dest-major input keeps per-node dests sorted
    const std::size_t i = cursor[e.node]++;
    exception_dest_[i] = e.dest;
    exception_dist_[i] = e.dist;
  }
  // Nodes already isolated in the input graph are adopted as retired faults,
  // so a router built from a degraded machine supports retract_fault too.
  for (std::size_t u = 0; u < n_; ++u) {
    if (graph_.degree(static_cast<NodeId>(u)) == 0) {
      faulty_.push_back(static_cast<NodeId>(u));
    }
  }
}

std::uint32_t CompressedRouter::reference_distance(NodeId dest, NodeId node) const {
  return reference_ == Reference::DeBruijn ? debruijn_distance(db_, node, dest)
                                           : shuffle_exchange_distance(se_h_, node, dest);
}

std::uint32_t CompressedRouter::distance(NodeId dest, NodeId node) const {
  const auto lo = exception_dest_.begin() + static_cast<std::ptrdiff_t>(exception_offsets_[node]);
  const auto hi =
      exception_dest_.begin() + static_cast<std::ptrdiff_t>(exception_offsets_[node + 1]);
  const auto it = std::lower_bound(lo, hi, dest);
  if (it != hi && *it == dest) {
    return exception_dist_[static_cast<std::size_t>(it - exception_dest_.begin())];
  }
  return reference_distance(dest, node);
}

NodeId CompressedRouter::next_hop(NodeId dest, NodeId node) const {
  if (node == dest) return dest;
  const std::uint32_t here = distance(dest, node);
  if (here == static_cast<std::uint32_t>(-1)) return kInvalidNode;
  return canonical_descent_step(graph_, node, [&](NodeId w) { return distance(dest, w); });
}

std::size_t CompressedRouter::memory_bytes() const {
  // The exception CSR plus the retained graph CSR (offsets + both half-edge
  // arrays).
  return exception_offsets_.size() * sizeof(std::size_t) +
         exception_dest_.size() * sizeof(NodeId) +
         exception_dist_.size() * sizeof(std::uint32_t) +
         (graph_.num_nodes() + 1) * sizeof(std::size_t) + graph_.num_edges() * 2 * sizeof(NodeId);
}

// --- CompressedRouter incremental maintenance --------------------------------

void CompressedRouter::reference_neighbors(NodeId x, std::vector<NodeId>& out) const {
  if (reference_ == Reference::DeBruijn) {
    debruijn_neighbors(db_, x, out);
  } else {
    shuffle_exchange_neighbors(se_h_, x, out);
  }
}

CompressedRouter::Stats CompressedRouter::stats() const {
  Stats s;
  s.exception_entries = exception_dest_.size();
  s.bytes = memory_bytes();
  if (reference_ == Reference::DeBruijn) {
    s.reference = "debruijn";
    s.reference_base = db_.base;
    s.reference_digits = db_.digits;
  } else {
    s.reference = "shuffle_exchange";
    s.reference_digits = se_h_;
  }
  s.tracked_faults = faulty_.size();
  // FNV-1a over the logical routing state, so two routers answering
  // identically hash identically regardless of how they were produced
  // (from-scratch build vs a chain of incremental patches vs journal replay).
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(n_));
  for (const std::size_t o : exception_offsets_) mix(o);
  for (const NodeId d : exception_dest_) mix(d);
  for (const std::uint32_t d : exception_dist_) mix(d);
  s.state_hash = h;
  return s;
}

void CompressedRouter::rebuild_graph(NodeId v, const std::vector<NodeId>& add_neighbors,
                                     bool removing) {
  GraphBuilder b(n_);
  b.reserve_edges(graph_.num_edges() + add_neighbors.size());
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId w : graph_.neighbors(u)) {
      if (u >= w) continue;  // each undirected edge once
      if (removing && (u == v || w == v)) continue;
      b.add_edge(u, w);
    }
  }
  if (!removing) {
    for (const NodeId w : add_neighbors) b.add_edge(v, w);
  }
  graph_ = b.build();
}

void CompressedRouter::merge_deltas(std::vector<DistDelta>& deltas) {
  if (deltas.empty()) return;
  std::sort(deltas.begin(), deltas.end(), [](const DistDelta& a, const DistDelta& b) {
    return a.node != b.node ? a.node < b.node : a.dest < b.dest;
  });
  std::vector<std::size_t> new_offsets(n_ + 1, 0);
  std::vector<NodeId> new_dest;
  std::vector<std::uint32_t> new_dist;
  new_dest.reserve(exception_dest_.size() + deltas.size());
  new_dist.reserve(exception_dist_.size() + deltas.size());
  std::size_t di = 0;
  for (NodeId u = 0; u < n_; ++u) {
    std::size_t oi = exception_offsets_[u];
    const std::size_t oe = exception_offsets_[u + 1];
    while (oi < oe || (di < deltas.size() && deltas[di].node == u)) {
      bool take_delta;
      if (di >= deltas.size() || deltas[di].node != u) {
        take_delta = false;
      } else if (oi >= oe) {
        take_delta = true;
      } else if (deltas[di].dest < exception_dest_[oi]) {
        take_delta = true;
      } else if (deltas[di].dest > exception_dest_[oi]) {
        take_delta = false;
      } else {
        take_delta = true;  // the delta overrides the stale entry
        ++oi;
      }
      if (take_delta) {
        const DistDelta& dl = deltas[di++];
        // Canonical form: an exception exists exactly where the true distance
        // deviates from the reference algebra. A delta that lands back on the
        // reference value erases the entry.
        if (dl.dist != reference_distance(dl.dest, dl.node)) {
          new_dest.push_back(dl.dest);
          new_dist.push_back(dl.dist);
        }
      } else {
        new_dest.push_back(exception_dest_[oi]);
        new_dist.push_back(exception_dist_[oi]);
        ++oi;
      }
    }
    new_offsets[u + 1] = new_dest.size();
  }
  exception_offsets_ = std::move(new_offsets);
  exception_dest_ = std::move(new_dest);
  exception_dist_ = std::move(new_dist);
}

void CompressedRouter::apply_fault(NodeId v) {
  if (v >= n_) throw std::invalid_argument("CompressedRouter::apply_fault: node out of range");
  if (std::binary_search(faulty_.begin(), faulty_.end(), v)) {
    throw std::invalid_argument("CompressedRouter::apply_fault: node already retired");
  }

  const auto nb = graph_.neighbors(v);
  const std::vector<NodeId> old_neighbors(nb.begin(), nb.end());

  std::vector<DistDelta> deltas;

  // Old distances v <-> d for every d in one BFS (the graph is undirected),
  // instead of N single-pair lookups that each pay the O(h^2) reference
  // algebra. Also serves as the dest-v row below.
  std::vector<std::uint32_t> row_v(n_);
  {
    std::vector<NodeId> bfs_cur, bfs_next;
    bfs_row_graph(graph_, v, row_v, bfs_cur, bfs_next);
  }

  // Scratch shared across destinations: era-stamped membership in the
  // affected set, era-stamped settled/tentative state for the repair
  // Dijkstra, and an era-stamped memo of this destination's old distances —
  // the cascade probes the same near-v nodes from several parents, and each
  // raw distance() costs an O(h^2) algebra evaluation on non-exception
  // pairs. No per-destination O(N) clearing anywhere.
  std::vector<std::uint32_t> in_affected(n_, 0), settled(n_, 0);
  std::vector<std::uint32_t> tentative(n_);
  std::vector<std::uint32_t> memo_stamp(n_, 0), memo_dist(n_);
  std::uint32_t era = 0;
  using QItem = std::pair<std::uint32_t, NodeId>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>> cascade, repair;
  std::vector<NodeId> affected;

  for (NodeId d = 0; d < n_; ++d) {
    if (d == v) continue;
    const std::uint32_t old_v = row_v[d];
    if (old_v == kUnreachable) continue;  // v lies on no live path to d
    deltas.push_back({v, d, kUnreachable});
    ++era;
    in_affected[v] = era;
    affected.clear();
    const auto dist = [&](NodeId x) {
      if (memo_stamp[x] == era) return memo_dist[x];
      memo_stamp[x] = era;
      return memo_dist[x] = distance(d, x);
    };

    // A node whose every shortest-path parent is v or already affected loses
    // all of its shortest paths to d (Ramalingam–Reps deletion). Processing
    // candidates in increasing old-distance order makes the test exact: all
    // affected nodes of the parent level are classified before any child.
    const auto has_live_parent = [&](NodeId u, std::uint32_t du) {
      for (const NodeId w : graph_.neighbors(u)) {
        if (w == v || in_affected[w] == era) continue;
        if (dist(w) + 1 == du) return true;
      }
      return false;
    };
    for (const NodeId u : old_neighbors) {
      const std::uint32_t du = dist(u);
      if (du != old_v + 1 || in_affected[u] == era) continue;
      if (has_live_parent(u, du)) continue;
      in_affected[u] = era;
      affected.push_back(u);
      cascade.push({du, u});
    }
    while (!cascade.empty()) {
      const auto [du, u] = cascade.top();
      cascade.pop();
      for (const NodeId x : graph_.neighbors(u)) {
        if (x == v || in_affected[x] == era) continue;
        const std::uint32_t dx = dist(x);
        if (dx != du + 1) continue;  // not a child of u
        if (has_live_parent(x, dx)) continue;
        in_affected[x] = era;
        affected.push_back(x);
        cascade.push({dx, x});
      }
    }

    // Exact new distances for the affected set: Dijkstra seeded from the
    // unaffected boundary (whose distances are unchanged by the deletion).
    for (const NodeId u : affected) {
      std::uint32_t best = kUnreachable;
      for (const NodeId w : graph_.neighbors(u)) {
        if (w == v || in_affected[w] == era) continue;
        const std::uint32_t dw = dist(w);
        if (dw != kUnreachable && dw + 1 < best) best = dw + 1;
      }
      tentative[u] = best;
      if (best != kUnreachable) repair.push({best, u});
    }
    while (!repair.empty()) {
      const auto [t, u] = repair.top();
      repair.pop();
      if (settled[u] == era || t != tentative[u]) continue;
      settled[u] = era;
      for (const NodeId x : graph_.neighbors(u)) {
        if (x == v || in_affected[x] != era || settled[x] == era) continue;
        if (t + 1 < tentative[x]) {
          tentative[x] = t + 1;
          repair.push({t + 1, x});
        }
      }
    }
    for (const NodeId u : affected) {
      deltas.push_back({u, d, settled[u] == era ? tentative[u] : kUnreachable});
    }
  }

  // The row of destination v: an isolated node is unreachable from everyone.
  for (NodeId u = 0; u < n_; ++u) {
    if (u != v && row_v[u] != kUnreachable) deltas.push_back({u, v, kUnreachable});
  }

  rebuild_graph(v, {}, /*removing=*/true);
  merge_deltas(deltas);
  faulty_.insert(std::upper_bound(faulty_.begin(), faulty_.end(), v), v);
}

void CompressedRouter::retract_fault(NodeId v) {
  const auto it = std::lower_bound(faulty_.begin(), faulty_.end(), v);
  if (it == faulty_.end() || *it != v) {
    throw std::invalid_argument("CompressedRouter::retract_fault: node is not retired");
  }
  faulty_.erase(it);

  // v returns with its full reference adjacency towards every live peer.
  std::vector<NodeId> restored;
  reference_neighbors(v, restored);
  std::erase_if(restored, [&](NodeId w) {
    return std::binary_search(faulty_.begin(), faulty_.end(), w);
  });
  // Rebuild the graph first: the relaxation below walks the restored
  // adjacency while distance() still answers from the pre-repair exceptions.
  rebuild_graph(v, restored, /*removing=*/false);

  std::vector<DistDelta> deltas;

  // Row of destination v: one BFS over the restored graph.
  {
    std::vector<std::uint32_t> row(n_);
    std::vector<NodeId> cur, next;
    bfs_row_graph(graph_, v, row, cur, next);
    for (NodeId u = 0; u < n_; ++u) {
      if (u != v && row[u] != distance(v, u)) deltas.push_back({u, v, row[u]});
    }
  }

  // Every other destination: an edge insertion only ever shortens distances,
  // and every shortened path runs through v, so relaxing outward from v with
  // old distances as the cap touches exactly the improved nodes.
  std::vector<std::uint32_t> stamp(n_, 0);
  std::vector<std::uint32_t> best(n_);
  std::vector<std::uint32_t> memo_stamp(n_, 0), memo_dist(n_);
  std::uint32_t era = 0;
  using QItem = std::pair<std::uint32_t, NodeId>;
  std::priority_queue<QItem, std::vector<QItem>, std::greater<QItem>> relax;
  for (NodeId d = 0; d < n_; ++d) {
    if (d == v) continue;
    ++era;
    // Era-stamped memo of this destination's pre-repair distances: the
    // relaxation frontier probes shared neighbors repeatedly, and each raw
    // distance() pays the O(h^2) reference algebra on non-exception pairs.
    const auto dist = [&](NodeId x) {
      if (memo_stamp[x] == era) return memo_dist[x];
      memo_stamp[x] = era;
      return memo_dist[x] = distance(d, x);
    };
    std::uint32_t nv = kUnreachable;
    for (const NodeId w : graph_.neighbors(v)) {
      const std::uint32_t dw = dist(w);
      if (dw != kUnreachable && dw + 1 < nv) nv = dw + 1;
    }
    if (nv >= dist(v)) continue;  // no improvement for this destination
    stamp[v] = era;
    best[v] = nv;
    relax.push({nv, v});
    while (!relax.empty()) {
      const auto [t, u] = relax.top();
      relax.pop();
      if (t != best[u] || stamp[u] != era) continue;  // stale entry
      deltas.push_back({u, d, t});
      for (const NodeId x : graph_.neighbors(u)) {
        const std::uint32_t cur_x = stamp[x] == era ? best[x] : dist(x);
        if (t + 1 < cur_x) {
          stamp[x] = era;
          best[x] = t + 1;
          relax.push({t + 1, x});
        }
      }
    }
  }

  merge_deltas(deltas);
}

// --- ImplicitRouter ----------------------------------------------------------

namespace {

// The implicit backend's per-shape plumbing, shared by the scalar and batched
// paths via templates over the topology steppers. Neighbor enumeration goes
// into a fixed stack array — the algebraic degree is <= 2m <= 32 on every
// packed shape (wider bases take the next_hop_wide fallback), and SE is <= 3.
constexpr int kMaxFixedDegree = 32;

struct DebruijnShapeOps {
  using Stepper = DebruijnDistanceStepper;
  DeBruijnParams params;
  Stepper make(NodeId dest) const { return Stepper(params, dest); }
};

struct ShuffleExchangeShapeOps {
  using Stepper = ShuffleExchangeDistanceStepper;
  unsigned h;
  Stepper make(NodeId dest) const { return Stepper(h, dest); }
};

// Canonical hop from the stepper's current node: the algebraic enumeration
// produces exactly the graph's sorted adjacency, so the first neighbor whose
// capped probe proves dist-1 is the canonical (lowest-id) hop — and at
// dist == 1 the only closer node is dest itself, no probes needed. The
// winner's witness comes back so the caller can advance/memoize it without
// another scan. Neighbors come pre-packaged from the stepper
// (probe_neighbors/probe_pre): the shift classification and its modular
// divisions happen once per hop, not once per probe.
template <class Stepper>
NodeId canonical_hop(const Stepper& st, DistanceWitness* hop_wit, std::uint64_t* hop_opt) {
  const std::uint32_t here = st.distance();
  if (here == 1) {
    hop_wit->offset = 0;
    *hop_opt = 0;
    return st.dest();
  }
  typename Stepper::ProbeNeighbor nbrs[kMaxFixedDegree];
  const int count = st.probe_neighbors(nbrs);
  for (int i = 0; i < count; ++i) {
    if (st.probe_pre(nbrs[i], here - 1, hop_wit, hop_opt) == here - 1) return nbrs[i].id;
  }
  return kInvalidNode;  // unreachable on a connected shape: cannot happen
}

template <class Ops>
NodeId scalar_next_hop(const Ops& ops, NodeId dest, NodeId node) {
  typename Ops::Stepper st = ops.make(dest);
  st.reset(node);
  DistanceWitness w;
  std::uint64_t opt = 0;
  return canonical_hop(st, &w, &opt);
}

// The hinted batch: per-packet state rides in the caller's RouteHint array,
// so a warm packet costs one seed + the adjacent-offset probes and touches
// no shared scratch at all. A hint is trusted only when its (dest, node)
// matches the query — fresh or stale entries fall back to a full positioning
// scan and are then overwritten.
template <class Ops>
void route_many_hinted_impl(const Ops& ops, std::uint64_t n, std::span<const NodeId> dests,
                            std::span<const NodeId> nodes, std::span<NodeId> out,
                            std::span<RouteHint> hints) {
  std::optional<typename Ops::Stepper> st;
  NodeId st_dest = kInvalidNode;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const NodeId dest = dests[i];
    const NodeId node = nodes[i];
    if (node >= n || dest >= n) throw std::out_of_range("ImplicitRouter: node out of range");
    if (node == dest) {
      out[i] = dest;
      continue;
    }
    if (!st) {
      st.emplace(ops.make(dest));
      st_dest = dest;
    } else if (st_dest != dest) {
      st->retarget(dest);
      st_dest = dest;
    }
    RouteHint& hint = hints[i];
    if (hint.dest == dest && hint.node == node) {
      st->seed_opt(node, hint.dist, DistanceWitness{hint.wit}, hint.opt);
    } else {
      st->reset(node);
    }
    DistanceWitness hop_wit{};
    std::uint64_t hop_opt = 0;
    const NodeId hop = canonical_hop(*st, &hop_wit, &hop_opt);
    out[i] = hop;
    if (hop == kInvalidNode) continue;
    hint = {dest, hop, st->distance() - 1, hop_wit.offset, hop_opt};
  }
}

template <class Ops>
std::vector<NodeId> path_impl(const Ops& ops, NodeId from, NodeId dest) {
  typename Ops::Stepper st = ops.make(dest);
  st.reset(from);
  std::vector<NodeId> route{from};
  route.reserve(st.distance() + 1);
  while (st.node() != dest) {
    DistanceWitness hop_wit{};
    std::uint64_t hop_opt = 0;
    const NodeId hop = canonical_hop(st, &hop_wit, &hop_opt);
    // seed_opt rather than advance: it repositions just as cheaply and keeps
    // the winner's optimal-offset mask for the next hop's probes.
    st.seed_opt(hop, st.distance() - 1, hop_wit, hop_opt);
    route.push_back(hop);
  }
  return route;
}

}  // namespace

ImplicitRouter::ImplicitRouter(Shape shape, DeBruijnParams db, unsigned se_h, std::uint64_t n)
    : shape_(shape), db_(db), se_h_(se_h), n_(n) {}

ImplicitRouter ImplicitRouter::for_debruijn(const DeBruijnParams& params) {
  return ImplicitRouter(Shape::DeBruijn, params, 0, debruijn_num_nodes(params));
}

ImplicitRouter ImplicitRouter::for_shuffle_exchange(unsigned h) {
  return ImplicitRouter(Shape::ShuffleExchange, {}, h, shuffle_exchange_num_nodes(h));
}

std::uint32_t ImplicitRouter::distance(NodeId dest, NodeId node) const {
  return shape_ == Shape::DeBruijn ? debruijn_distance(db_, node, dest)
                                   : shuffle_exchange_distance(se_h_, node, dest);
}

NodeId ImplicitRouter::next_hop(NodeId dest, NodeId node) const {
  if (node >= n_ || dest >= n_) throw std::out_of_range("ImplicitRouter: node out of range");
  if (node == dest) return dest;
  if (shape_ == Shape::DeBruijn) {
    if (2 * db_.base > kMaxFixedDegree) return next_hop_wide(dest, node);
    return scalar_next_hop(DebruijnShapeOps{db_}, dest, node);
  }
  return scalar_next_hop(ShuffleExchangeShapeOps{se_h_}, dest, node);
}

// Wide-base shapes (algebraic degree > kMaxFixedDegree): the original
// vector-based enumeration with full distance evaluations. Cold by
// construction — every packed B_{m,h} has degree <= 2m <= 32.
NodeId ImplicitRouter::next_hop_wide(NodeId dest, NodeId node) const {
  const std::uint32_t here = distance(dest, node);
  if (here == 1) return dest;
  std::vector<NodeId> neighbors;
  debruijn_neighbors(db_, node, neighbors);
  for (const NodeId w : neighbors) {
    if (distance(dest, w) + 1 == here) return w;
  }
  return kInvalidNode;  // unreachable on a connected shape: cannot happen
}

void ImplicitRouter::route_many(std::span<const NodeId> dests, std::span<const NodeId> nodes,
                                std::span<NodeId> out, std::span<RouteHint> hints) const {
  check_batch_spans(dests.size(), nodes.size(), out.size());
  if (hints.size() != dests.size()) {
    throw std::invalid_argument("Router batch query: hint span size differs");
  }
  if (shape_ == Shape::DeBruijn) {
    if (2 * db_.base > kMaxFixedDegree) {
      for (std::size_t i = 0; i < dests.size(); ++i) out[i] = next_hop(dests[i], nodes[i]);
      return;
    }
    route_many_hinted_impl(DebruijnShapeOps{db_}, n_, dests, nodes, out, hints);
    return;
  }
  route_many_hinted_impl(ShuffleExchangeShapeOps{se_h_}, n_, dests, nodes, out, hints);
}

std::vector<NodeId> ImplicitRouter::path(NodeId from, NodeId dest) const {
  if (from >= n_ || dest >= n_) return {};
  if (shape_ == Shape::DeBruijn) {
    if (2 * db_.base > kMaxFixedDegree) return Router::path(from, dest);
    return path_impl(DebruijnShapeOps{db_}, from, dest);
  }
  return path_impl(ShuffleExchangeShapeOps{se_h_}, from, dest);
}

// --- construction ------------------------------------------------------------

namespace {

/// The implicit router for a recognized B_{m,h} / SE_h shape, else null.
std::unique_ptr<Router> implicit_router_for(const Graph& g) {
  if (const auto db = debruijn_shape_of(g)) {
    return std::make_unique<ImplicitRouter>(ImplicitRouter::for_debruijn(*db));
  }
  if (const auto se_h = shuffle_exchange_shape_of(g)) {
    return std::make_unique<ImplicitRouter>(ImplicitRouter::for_shuffle_exchange(*se_h));
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Router> make_router(const Graph& g, const RouterOptions& options) {
  using Backend = RouterOptions::Backend;
  switch (options.backend) {
    case Backend::Table:
      return std::make_unique<TableRouter>(g);
    case Backend::Compressed:
      return std::make_unique<CompressedRouter>(g);
    case Backend::Implicit:
      if (auto implicit = implicit_router_for(g)) return implicit;
      throw std::invalid_argument(
          "make_router: graph is neither de Bruijn- nor shuffle-exchange-shaped");
    case Backend::Auto:
      break;
  }
  // Size-aware policy: below the threshold the N^2 slab is cheap, builds
  // faster than the compressed router and answers in O(1), so every small
  // graph — shaped, degraded or neither — gets the table. The canonical
  // hops are identical whichever backend answers.
  if (g.num_nodes() < kImplicitMinNodes) return std::make_unique<TableRouter>(g);
  if (auto implicit = implicit_router_for(g)) return implicit;
  if (reference_shape_of(g)) return std::make_unique<CompressedRouter>(g);
  return std::make_unique<TableRouter>(g);
}

}  // namespace ftdb::sim
