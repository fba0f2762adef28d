#include "graph/multi_source_bfs.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "graph/bfs_workspace.hpp"  // kUnreachable, the distance sentinel

namespace ftdb {

namespace {

// A pull level reads one frontier word per open arc and writes sequentially;
// a push level does a read-modify-write per frontier arc plus a second pass
// over the touched nodes. Pull wins once the frontier's arcs exceed about
// half of the open arcs (measured on SE_12, B_{2,10}, B_{2,12} and a
// 4096-node cycle).
constexpr std::uint64_t kPullFactor = 2;

// What one level found: the next frontier's size, the fresh (source, node)
// pairs, the arcs out of the next frontier and the arcs of the nodes that
// every source has now reached.
struct LevelResult {
  std::size_t next_size = 0;
  std::uint64_t fresh_pairs = 0;
  std::uint64_t next_arcs = 0;
  std::uint64_t closed_arcs = 0;
};

// What both directions read and write besides the frontier words.
struct Sweep {
  const Graph& g;
  std::uint64_t full;  // one bit per source of the batch
  std::uint64_t* visited;
  std::vector<std::uint32_t>* distances;
  std::size_t n;
  std::uint32_t level;
};

// Records that the non-empty set of `fresh` sources reached u on this level.
// The aggregates need only the popcount; the bit loop runs only for distance
// rows.
inline void settle(const Sweep& s, NodeId u, std::uint64_t fresh, LevelResult& r) {
  const std::uint64_t degree = s.g.degree(u);
  s.visited[u] |= fresh;
  r.fresh_pairs += static_cast<std::uint64_t>(std::popcount(fresh));
  r.next_arcs += degree;
  if (s.visited[u] == s.full) r.closed_arcs += degree;
  if (s.distances != nullptr) {
    for (; fresh != 0; fresh &= fresh - 1) {
      (*s.distances)[static_cast<std::size_t>(std::countr_zero(fresh)) * s.n + u] = s.level;
    }
  }
}

// Each direction is its own function so that the compiler keeps each loop's
// pointers and counters in registers: one loop body holding both directions
// made the push levels of a 4096-node cycle about 40% slower.

// Push: each frontier node scatters its word into its neighbours' nxt words
// and clears its own; next_frontier collects the touched nodes, then keeps
// those that gained a source, whose words become the new frontier in cur.
LevelResult push_level(const Sweep& s, std::uint64_t* cur, std::uint64_t* nxt,
                       const NodeId* frontier, std::size_t frontier_size,
                       NodeId* next_frontier) {
  LevelResult r;
  std::size_t touched = 0;
  for (std::size_t i = 0; i < frontier_size; ++i) {
    const NodeId v = frontier[i];
    const std::uint64_t m = cur[v];
    cur[v] = 0;
    for (const NodeId u : s.g.neighbors(v)) {
      if (nxt[u] == 0) next_frontier[touched++] = u;
      nxt[u] |= m;
    }
  }
  for (std::size_t i = 0; i < touched; ++i) {
    const NodeId u = next_frontier[i];
    const std::uint64_t fresh = nxt[u] & ~s.visited[u];
    nxt[u] = 0;
    if (fresh == 0) continue;
    cur[u] = fresh;
    next_frontier[r.next_size++] = u;
    settle(s, u, fresh, r);
  }
  return r;
}

// Pull: each open node gathers its neighbours' cur words; the fresh bits go
// to nxt, which the caller then makes the frontier. Nodes that every source
// has now reached leave the open list.
LevelResult pull_level(const Sweep& s, const std::uint64_t* cur, std::uint64_t* nxt,
                       NodeId* open, std::size_t& open_size, NodeId* next_frontier) {
  LevelResult r;
  std::size_t still_open = 0;
  for (std::size_t i = 0; i < open_size; ++i) {
    const NodeId u = open[i];
    const std::uint64_t missing = s.full & ~s.visited[u];
    if (missing == 0) continue;
    std::uint64_t gathered = 0;
    for (const NodeId w : s.g.neighbors(u)) gathered |= cur[w];
    const std::uint64_t fresh = gathered & missing;
    if (fresh != 0) {
      nxt[u] = fresh;
      next_frontier[r.next_size++] = u;
      settle(s, u, fresh, r);
    }
    if (fresh != missing) open[still_open++] = u;
  }
  open_size = still_open;
  return r;
}

}  // namespace

MultiSourceBfs::BatchStats MultiSourceBfs::run(const Graph& g, NodeId base) {
  const std::size_t n = g.num_nodes();
  const unsigned width = static_cast<unsigned>(std::min<std::size_t>(kBatchWidth, n - base));
  NodeId sources[kBatchWidth];
  for (unsigned i = 0; i < width; ++i) sources[i] = base + i;
  return run_batch(g, {sources, width});
}

MultiSourceBfs::BatchStats MultiSourceBfs::run_batch(const Graph& g,
                                                     std::span<const NodeId> sources,
                                                     std::vector<std::uint32_t>* distances) {
  const std::size_t n = g.num_nodes();
  const unsigned width = static_cast<unsigned>(sources.size());
  if (width == 0 || width > kBatchWidth) {
    throw std::invalid_argument("MultiSourceBfs: batch must hold 1..64 sources");
  }
  if (n > visited_.size()) {
    throw std::invalid_argument("MultiSourceBfs: graph is larger than the kernel's size");
  }
  const std::uint64_t full = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;

  // Validate every source before touching the frontier words, so a throw
  // leaves frontier_bits_ / next_bits_ all zero for the next batch.
  std::fill_n(visited_.begin(), n, 0);
  for (unsigned i = 0; i < width; ++i) {
    const NodeId s = sources[i];
    if (s >= n || visited_[s] != 0) {
      throw std::invalid_argument("MultiSourceBfs: sources must be distinct and in range");
    }
    visited_[s] = std::uint64_t{1} << i;
  }
  if (distances != nullptr) distances->assign(width * n, kUnreachable);

  frontier_.resize(n);
  next_frontier_.resize(n);
  open_.resize(n);
  std::iota(open_.begin(), open_.end(), NodeId{0});
  // open_[0, open_size) holds every open node, and closed ones until a pull
  // level prunes them.
  std::size_t open_size = n;

  // Arcs out of the current frontier, and arcs of the open nodes (those some
  // source has not reached yet): the two sides of the push/pull comparison.
  std::uint64_t frontier_arcs = 0;
  std::uint64_t open_arcs = 2 * g.num_edges();
  std::size_t frontier_size = 0;
  for (unsigned i = 0; i < width; ++i) {
    const NodeId s = sources[i];
    frontier_bits_[s] = visited_[s];
    frontier_[frontier_size++] = s;
    frontier_arcs += g.degree(s);
    if (visited_[s] == full) open_arcs -= g.degree(s);
    if (distances != nullptr) (*distances)[i * n + s] = 0;
  }

  Sweep sweep{g, full, visited_.data(), distances, n, 0};
  std::uint64_t reached = width;  // (source, node) pairs, sources included
  std::uint64_t total_distance = 0;
  std::uint32_t last_level = 0;
  while (frontier_size != 0) {
    ++sweep.level;
    LevelResult r;
    if (frontier_arcs * kPullFactor > open_arcs) {
      r = pull_level(sweep, frontier_bits_.data(), next_bits_.data(), open_.data(), open_size,
                     next_frontier_.data());
      for (std::size_t i = 0; i < frontier_size; ++i) frontier_bits_[frontier_[i]] = 0;
      frontier_bits_.swap(next_bits_);
    } else {
      r = push_level(sweep, frontier_bits_.data(), next_bits_.data(), frontier_.data(),
                     frontier_size, next_frontier_.data());
    }
    frontier_.swap(next_frontier_);
    frontier_size = r.next_size;
    frontier_arcs = r.next_arcs;
    open_arcs -= r.closed_arcs;
    reached += r.fresh_pairs;
    total_distance += r.fresh_pairs * sweep.level;
    if (r.fresh_pairs != 0) last_level = sweep.level;
  }

  BatchStats stats;
  stats.reachable_pairs = reached - width;
  stats.total_distance = total_distance;
  stats.max_finite_distance = last_level;
  stats.all_reach_all = reached == static_cast<std::uint64_t>(width) * n;
  return stats;
}

}  // namespace ftdb
