#include "sim/reconfigured_routing.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "graph/multi_source_bfs.hpp"
#include "graph/subgraph.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {

std::vector<NodeId> physical_route(const Machine& machine, const std::vector<NodeId>& logical) {
  std::vector<NodeId> out;
  out.reserve(logical.size());
  for (NodeId v : logical) {
    if (v >= machine.num_logical()) {
      throw std::out_of_range("physical_route: logical node out of range");
    }
    out.push_back(machine.to_physical[v]);
  }
  return out;
}

bool physical_route_is_live(const Machine& machine, const std::vector<NodeId>& physical) {
  if (physical.empty()) return false;
  for (NodeId v : physical) {
    if (v >= machine.physical.num_nodes() || machine.dead[v]) return false;
  }
  for (std::size_t i = 0; i + 1 < physical.size(); ++i) {
    if (physical[i] != physical[i + 1] &&
        !machine.physical.has_edge(physical[i], physical[i + 1])) {
      return false;
    }
  }
  return true;
}

std::vector<NodeId> debruijn_route_on_machine(const Machine& machine, std::uint64_t m,
                                              unsigned h, NodeId logical_src,
                                              NodeId logical_dst) {
  return physical_route(machine, debruijn_shift_route(m, h, logical_src, logical_dst));
}

std::vector<NodeId> se_route_on_machine(const Machine& machine, unsigned h,
                                        NodeId logical_src, NodeId logical_dst) {
  return physical_route(machine, shuffle_exchange_route(h, logical_src, logical_dst));
}

std::unique_ptr<Router> machine_logical_router(const Machine& machine, const Graph& target,
                                               const RouterOptions& options) {
  return make_router(machine.live_logical_graph(target), options);
}

namespace {

/// Survivor-induced physical graph plus the physical -> survivor relabeling —
/// the denominator side of every stretch metric.
struct SurvivorView {
  InducedSubgraph survivors;
  std::vector<NodeId> physical_to_survivor;
};

SurvivorView make_survivor_view(const Machine& machine) {
  SurvivorView view;
  std::vector<NodeId> live_nodes;
  for (std::size_t v = 0; v < machine.physical.num_nodes(); ++v) {
    if (!machine.dead[v]) live_nodes.push_back(static_cast<NodeId>(v));
  }
  view.survivors = induced_subgraph(machine.physical, live_nodes);
  view.physical_to_survivor.assign(machine.physical.num_nodes(), kInvalidNode);
  for (std::size_t i = 0; i < view.survivors.to_original.size(); ++i) {
    view.physical_to_survivor[view.survivors.to_original[i]] = static_cast<NodeId>(i);
  }
  return view;
}

}  // namespace

double max_route_stretch(const Machine& machine, const Router& router) {
  if (router.num_nodes() != machine.num_logical()) {
    throw std::invalid_argument("max_route_stretch: router and machine differ in node count");
  }
  const SurvivorView view = make_survivor_view(machine);

  double worst = 1.0;
  const std::size_t n = machine.num_logical();
  const std::size_t sn = view.survivors.graph.num_nodes();
  // Shortest paths come from the bit-parallel batch kernel: 64 logical
  // sources share one sweep of the survivor CSR instead of one BFS each.
  MultiSourceBfs scan(sn);
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> batch;
  // Logical distances come batched too: one distance_many row per source lets
  // the implicit backend reuse its incremental stepper across the whole row.
  std::vector<NodeId> all_dsts(n);
  for (NodeId v = 0; v < n; ++v) all_dsts[v] = v;
  std::vector<NodeId> src_rep(n);
  std::vector<std::uint32_t> logical_row(n);
  for (NodeId base = 0; base < n; base += MultiSourceBfs::kBatchWidth) {
    const NodeId end =
        static_cast<NodeId>(std::min<std::size_t>(n, base + MultiSourceBfs::kBatchWidth));
    batch.clear();
    for (NodeId src = base; src < end; ++src) {
      batch.push_back(view.physical_to_survivor[machine.to_physical[src]]);
    }
    scan.run_batch(view.survivors.graph, batch, &dist);
    for (NodeId src = base; src < end; ++src) {
      const std::uint32_t* row = dist.data() + static_cast<std::size_t>(src - base) * sn;
      std::fill(src_rep.begin(), src_rep.end(), src);
      router.distance_many(all_dsts, src_rep, logical_row);
      for (NodeId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        const std::uint32_t logical = logical_row[dst];
        if (logical == static_cast<std::uint32_t>(-1)) continue;
        const NodeId p_dst = view.physical_to_survivor[machine.to_physical[dst]];
        const std::uint32_t shortest = row[p_dst];
        if (shortest == 0 || shortest == kUnreachable) continue;
        const double stretch = static_cast<double>(logical) / static_cast<double>(shortest);
        worst = std::max(worst, stretch);
      }
    }
  }
  return worst;
}

double max_route_stretch_sampled(const Machine& machine, const Router& router,
                                 const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  if (router.num_nodes() != machine.num_logical()) {
    throw std::invalid_argument(
        "max_route_stretch_sampled: router and machine differ in node count");
  }
  const SurvivorView view = make_survivor_view(machine);

  // Group the sample by source so that up to 64 distinct sources share one
  // survivor-CSR sweep, exactly like the full audit.
  std::vector<std::pair<NodeId, NodeId>> sorted = pairs;
  std::sort(sorted.begin(), sorted.end());

  double worst = 1.0;
  const std::size_t n = machine.num_logical();
  const std::size_t sn = view.survivors.graph.num_nodes();
  MultiSourceBfs scan(sn);
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> batch;
  struct Group {
    NodeId src;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Group> groups;
  std::vector<NodeId> ld_dsts;
  std::vector<NodeId> ld_srcs;
  std::vector<std::uint32_t> logical_row;
  std::size_t i = 0;
  while (i < sorted.size()) {
    batch.clear();
    groups.clear();
    while (i < sorted.size() && batch.size() < MultiSourceBfs::kBatchWidth) {
      const NodeId src = sorted[i].first;
      if (src >= n) throw std::out_of_range("max_route_stretch_sampled: source out of range");
      std::size_t j = i;
      while (j < sorted.size() && sorted[j].first == src) ++j;
      groups.push_back({src, i, j});
      batch.push_back(view.physical_to_survivor[machine.to_physical[src]]);
      i = j;
    }
    scan.run_batch(view.survivors.graph, batch, &dist);
    // One distance_many call covers every pair of this 64-source wave.
    const std::size_t wave_begin = groups.empty() ? 0 : groups.front().begin;
    const std::size_t wave_end = groups.empty() ? 0 : groups.back().end;
    ld_dsts.clear();
    ld_srcs.clear();
    for (std::size_t p = wave_begin; p < wave_end; ++p) {
      if (sorted[p].second >= n) {
        throw std::out_of_range("max_route_stretch_sampled: destination out of range");
      }
      ld_dsts.push_back(sorted[p].second);
      ld_srcs.push_back(sorted[p].first);
    }
    logical_row.resize(ld_dsts.size());
    router.distance_many(ld_dsts, ld_srcs, logical_row);
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const std::uint32_t* row = dist.data() + gi * sn;
      for (std::size_t p = groups[gi].begin; p < groups[gi].end; ++p) {
        const NodeId src = sorted[p].first;
        const NodeId dst = sorted[p].second;
        if (src == dst) continue;
        const std::uint32_t logical = logical_row[p - wave_begin];
        if (logical == static_cast<std::uint32_t>(-1)) continue;
        const std::uint32_t shortest = row[view.physical_to_survivor[machine.to_physical[dst]]];
        if (shortest == 0 || shortest == kUnreachable) continue;
        worst = std::max(worst, static_cast<double>(logical) / static_cast<double>(shortest));
      }
    }
  }
  return worst;
}

double max_route_stretch(const Machine& machine, std::uint64_t m, unsigned h) {
  return max_route_stretch(
      machine, *machine_logical_router(machine, debruijn_graph({.base = m, .digits = h})));
}

double max_route_stretch_sampled(const Machine& machine, std::uint64_t m, unsigned h,
                                 const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  return max_route_stretch_sampled(
      machine, *machine_logical_router(machine, debruijn_graph({.base = m, .digits = h})), pairs);
}

double max_route_stretch_se(const Machine& machine, unsigned h) {
  return max_route_stretch(machine, *machine_logical_router(machine, shuffle_exchange_graph(h)));
}

double max_route_stretch_se_sampled(const Machine& machine, unsigned h,
                                    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  return max_route_stretch_sampled(
      machine, *machine_logical_router(machine, shuffle_exchange_graph(h)), pairs);
}

}  // namespace ftdb::sim
