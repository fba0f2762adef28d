#include "ft/tolerance.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/subgraph.hpp"

namespace ftdb {

bool monotone_embedding_survives(const Graph& target, const Graph& ft_graph,
                                 const FaultSet& faults, Edge* violation) {
  const std::vector<NodeId> phi = monotone_embedding(faults);
  if (phi.size() < target.num_nodes()) {
    if (violation != nullptr) *violation = Edge{kInvalidNode, kInvalidNode};
    return false;  // not enough survivors to host the target
  }
  for (std::size_t x = 0; x < target.num_nodes(); ++x) {
    const auto nb = target.neighbors(static_cast<NodeId>(x));
    // Adjacency lists are sorted, so jump straight to the neighbors above x
    // instead of filtering every entry.
    auto it = std::upper_bound(nb.begin(), nb.end(), static_cast<NodeId>(x));
    if (it == nb.end()) continue;
    // phi is strictly monotone, so the images phi[y] of the ascending
    // neighbors y are ascending too: verify them all with one merge scan
    // over the (sorted) ft adjacency of phi[x] instead of a binary search
    // per edge.
    const auto ft_nb = ft_graph.neighbors(phi[x]);
    auto ft_it = std::lower_bound(ft_nb.begin(), ft_nb.end(), phi[*it]);
    for (; it != nb.end(); ++it) {
      const NodeId want = phi[*it];
      while (ft_it != ft_nb.end() && *ft_it < want) ++ft_it;
      if (ft_it == ft_nb.end() || *ft_it != want) {
        if (violation != nullptr) *violation = Edge{static_cast<NodeId>(x), *it};
        return false;
      }
    }
  }
  return true;
}

void for_each_fault_set(std::size_t n, unsigned k,
                        const std::function<bool(const std::vector<NodeId>&)>& visit) {
  if (k > n) return;
  std::vector<NodeId> subset(k);
  for (unsigned i = 0; i < k; ++i) subset[i] = static_cast<NodeId>(i);
  while (true) {
    if (!visit(subset)) return;
    // Advance to the next k-combination in lexicographic order.
    int i = static_cast<int>(k) - 1;
    while (i >= 0 && subset[static_cast<unsigned>(i)] ==
                         static_cast<NodeId>(n - k + static_cast<unsigned>(i))) {
      --i;
    }
    if (i < 0) return;
    ++subset[static_cast<unsigned>(i)];
    for (unsigned j = static_cast<unsigned>(i) + 1; j < k; ++j) {
      subset[j] = subset[j - 1] + 1;
    }
  }
}

std::uint64_t binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t num = n - k + i;
    if (result > std::numeric_limits<std::uint64_t>::max() / num) {
      throw std::overflow_error("binomial: overflow");
    }
    result = result * num / i;
  }
  return result;
}

namespace {

ToleranceReport run_exhaustive(const Graph& target, const Graph& ft_graph, unsigned k,
                               const std::function<bool(const FaultSet&, Edge*)>& survives) {
  ToleranceReport report;
  const std::size_t n = ft_graph.num_nodes();
  for_each_fault_set(n, k, [&](const std::vector<NodeId>& subset) {
    ++report.fault_sets_checked;
    FaultSet faults(n, subset);
    Edge violation{};
    if (!survives(faults, &violation)) {
      report.tolerant = false;
      report.counterexample_faults = subset;
      report.violated_edge = violation;
      return false;
    }
    return true;
  });
  (void)target;
  return report;
}

}  // namespace

ToleranceReport check_tolerance_exhaustive(const Graph& target, const Graph& ft_graph,
                                           unsigned k, bool check_all_sizes) {
  ToleranceReport total;
  const unsigned lo = check_all_sizes ? 0 : k;
  for (unsigned kk = lo; kk <= k; ++kk) {
    ToleranceReport r = run_exhaustive(
        target, ft_graph, kk, [&](const FaultSet& faults, Edge* violation) {
          return monotone_embedding_survives(target, ft_graph, faults, violation);
        });
    total.fault_sets_checked += r.fault_sets_checked;
    if (!r.tolerant) {
      total.tolerant = false;
      total.counterexample_faults = std::move(r.counterexample_faults);
      total.violated_edge = r.violated_edge;
      return total;
    }
  }
  return total;
}

ToleranceReport check_tolerance_pairwise(const Graph& target, const Graph& ft_graph,
                                         unsigned k) {
  ToleranceReport report;
  const std::size_t n = target.num_nodes();
  if (ft_graph.num_nodes() < n + k) {
    // The smallest fault set that leaves fewer than N survivors.
    const std::size_t size = ft_graph.num_nodes() < n ? 0 : ft_graph.num_nodes() - n + 1;
    report.tolerant = false;
    for (std::size_t v = 0; v < size; ++v) {
      report.counterexample_faults.push_back(static_cast<NodeId>(v));
    }
    report.violated_edge = Edge{kInvalidNode, kInvalidNode};
    return report;
  }
  for (NodeId x = 0; x < n; ++x) {
    const auto nb = target.neighbors(x);
    const auto above = std::upper_bound(nb.begin(), nb.end(), x);
    for (unsigned a = 0; a <= k; ++a) {
      // Graphs are simple, so the neighbours of x + a strictly increase: the
      // entry k - a places past the first one >= y + a is y + k exactly when
      // the whole run y + a .. y + k is present. The runs ascend with y, so
      // each search starts where the last one ended.
      const auto ft_nb = ft_graph.neighbors(x + a);
      auto first = ft_nb.begin();
      for (auto it = above; it != nb.end(); ++it) {
        const NodeId y = *it;
        first = std::lower_bound(first, ft_nb.end(), y + a);
        const std::size_t last = static_cast<std::size_t>(first - ft_nb.begin()) + (k - a);
        if (last < ft_nb.size() && ft_nb[last] == y + k) continue;
        // Witness: the first missing y + b (b <= k), hit by the faults
        // {0..a-1} and {x+a+1..x+b}.
        NodeId b = a;
        while (std::binary_search(ft_nb.begin(), ft_nb.end(), y + b)) ++b;
        report.tolerant = false;
        for (NodeId v = 0; v < a; ++v) report.counterexample_faults.push_back(v);
        for (NodeId v = x + a + 1; v <= x + b; ++v) report.counterexample_faults.push_back(v);
        report.violated_edge = Edge{x, y};
        return report;
      }
    }
  }
  return report;
}

ToleranceReport check_tolerance_exhaustive_vf2(const Graph& target, const Graph& ft_graph,
                                               unsigned k,
                                               const EmbeddingSearchOptions& options) {
  return run_exhaustive(target, ft_graph, k, [&](const FaultSet& faults, Edge* violation) {
    auto survivors = faults.survivors();
    InducedSubgraph healthy = induced_subgraph(ft_graph, survivors);
    auto embedding = find_subgraph_embedding(target, healthy.graph, options);
    if (!embedding.has_value()) {
      if (violation != nullptr) *violation = Edge{kInvalidNode, kInvalidNode};
      return false;
    }
    return true;
  });
}

}  // namespace ftdb
