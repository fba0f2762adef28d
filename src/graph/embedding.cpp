#include "graph/embedding.hpp"

#include <cassert>
#include <cstddef>
#include <utility>

namespace ftdb {

bool is_valid_embedding(const Graph& pattern, const Graph& host, const Embedding& phi) {
  if (phi.size() != pattern.num_nodes()) return false;
  std::vector<bool> used(host.num_nodes(), false);
  for (NodeId image : phi) {
    if (image >= host.num_nodes() || used[image]) return false;
    used[image] = true;
  }
  for (std::size_t u = 0; u < pattern.num_nodes(); ++u) {
    for (NodeId v : pattern.neighbors(static_cast<NodeId>(u))) {
      if (static_cast<NodeId>(u) < v && !host.has_edge(phi[u], phi[v])) return false;
    }
  }
  return true;
}

namespace {

// Pattern-node visit order: start from the max-degree node, then repeatedly
// pick the unvisited node with the most already-visited neighbors (ties by
// degree, then label). This keeps the partial match connected so edge
// constraints prune early.
std::vector<NodeId> matching_order(const Graph& pattern) {
  const std::size_t n = pattern.num_nodes();
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  std::vector<std::size_t> visited_neighbors(n, 0);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (placed[v]) continue;
      if (best == n) {
        best = v;
        continue;
      }
      auto key = [&](std::size_t x) {
        return std::make_pair(visited_neighbors[x], pattern.degree(static_cast<NodeId>(x)));
      };
      if (key(v) > key(best)) best = v;
    }
    placed[best] = true;
    order.push_back(static_cast<NodeId>(best));
    for (NodeId w : pattern.neighbors(static_cast<NodeId>(best))) ++visited_neighbors[w];
  }
  return order;
}

struct Vf2State {
  const Graph& pattern;
  const Graph& host;
  const std::vector<NodeId>& order;
  const EmbeddingSearchOptions& options;
  EmbeddingSearchStats& stats;
  Embedding phi;                 // pattern -> host (kInvalidNode = unmapped)
  std::vector<bool> host_used;   // host node already an image

  bool feasible(NodeId p, NodeId h) const {
    if (host.degree(h) < pattern.degree(p)) return false;
    // Every already-mapped pattern neighbor must be a host neighbor of h.
    for (NodeId q : pattern.neighbors(p)) {
      if (phi[q] != kInvalidNode && !host.has_edge(h, phi[q])) return false;
    }
    return true;
  }

  bool search(std::size_t depth) {
    if (depth == order.size()) return true;
    const NodeId p = order[depth];

    // Candidates: if p has a mapped neighbor, only host-neighbors of its image
    // are possible; otherwise all unused host nodes.
    NodeId anchor = kInvalidNode;
    for (NodeId q : pattern.neighbors(p)) {
      if (phi[q] != kInvalidNode) {
        anchor = phi[q];
        break;
      }
    }
    auto try_candidate = [&](NodeId h) -> int {
      if (host_used[h]) return 0;
      ++stats.steps;
      if (options.max_steps != 0 && stats.steps > options.max_steps) {
        stats.aborted = true;
        return -1;
      }
      if (!feasible(p, h)) return 0;
      phi[p] = h;
      host_used[h] = true;
      if (search(depth + 1)) return 1;
      phi[p] = kInvalidNode;
      host_used[h] = false;
      return stats.aborted ? -1 : 0;  // an abort unwinds every depth at once
    };

    if (anchor != kInvalidNode) {
      for (NodeId h : host.neighbors(anchor)) {
        int r = try_candidate(h);
        if (r != 0) return r == 1;
      }
    } else {
      for (std::size_t h = 0; h < host.num_nodes(); ++h) {
        int r = try_candidate(static_cast<NodeId>(h));
        if (r != 0) return r == 1;
      }
    }
    return false;
  }
};

}  // namespace

std::optional<Embedding> find_subgraph_embedding(const Graph& pattern, const Graph& host,
                                                 const EmbeddingSearchOptions& options,
                                                 EmbeddingSearchStats* stats) {
  EmbeddingSearchStats local_stats;
  EmbeddingSearchStats& st = stats != nullptr ? *stats : local_stats;
  st = EmbeddingSearchStats{};
  if (pattern.num_nodes() > host.num_nodes()) return std::nullopt;
  if (pattern.num_nodes() == 0) return Embedding{};

  auto order = matching_order(pattern);
  Vf2State state{pattern, host,
                 order,   options,
                 st,      Embedding(pattern.num_nodes(), kInvalidNode),
                 std::vector<bool>(host.num_nodes(), false)};
  if (state.search(0)) return state.phi;
  return std::nullopt;
}

Embedding compose(const Embedding& f, const Embedding& g) {
  Embedding out(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    assert(f[i] < g.size());
    out[i] = g[f[i]];
  }
  return out;
}

Embedding identity_embedding(std::size_t n) {
  Embedding phi(n);
  for (std::size_t i = 0; i < n; ++i) phi[i] = static_cast<NodeId>(i);
  return phi;
}

}  // namespace ftdb
