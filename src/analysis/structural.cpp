#include "analysis/structural.hpp"

#include <sstream>

#include "analysis/parallel_all_pairs.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/reconfigure.hpp"
#include "graph/algorithms.hpp"
#include "sim/network.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::analysis {

StructuralSummary summarize_graph(const Graph& g) {
  StructuralSummary s;
  s.nodes = g.num_nodes();
  s.edges = g.num_edges();
  s.min_degree = g.min_degree();
  s.max_degree = g.max_degree();
  s.average_degree = g.average_degree();
  const AllPairsSummary ap = all_pairs_summary(g);
  s.connected = ap.connected;
  s.diameter = ap.connected ? ap.max_finite_distance : kUnreachable;
  s.average_distance = ap.reachable_pairs == 0
                           ? 0.0
                           : static_cast<double>(ap.total_distance) /
                                 static_cast<double>(ap.reachable_pairs);
  return s;
}

Table structural_comparison_table(unsigned h_min, unsigned h_max, unsigned k_max) {
  Table t({"graph", "h", "k", "nodes", "edges", "degree (min/avg/max)", "diameter",
           "avg distance"});
  auto add = [&](const std::string& name, unsigned h, unsigned k, const Graph& g) {
    const StructuralSummary s = summarize_graph(g);
    std::ostringstream deg;
    deg << s.min_degree << "/" << fmt_double(s.average_degree, 2) << "/" << s.max_degree;
    t.add_row({name, fmt_u64(h), fmt_u64(k), fmt_u64(s.nodes), fmt_u64(s.edges), deg.str(),
               fmt_u64(s.diameter), fmt_double(s.average_distance, 2)});
  };
  for (unsigned h = h_min; h <= h_max; ++h) {
    add("B_{2,h}", h, 0, debruijn_base2(h));
    for (unsigned k = 1; k <= k_max; ++k) {
      add("B^k_{2,h}", h, k, ft_debruijn_base2(h, k));
    }
    add("SE_h", h, 0, shuffle_exchange_graph(h));
    add("SE natural FT", h, k_max, ft_shuffle_exchange_natural(h, k_max).ft_graph);
  }
  return t;
}

std::string reconfigured_diameter_report(unsigned h, unsigned k, unsigned trials,
                                         std::uint64_t seed) {
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, k);
  const std::uint32_t target_diameter = parallel_diameter(target);
  SplitMix64 rng(seed);
  unsigned matches = 0;
  for (unsigned t = 0; t < trials; ++t) {
    const FaultSet faults = FaultSet::random(ft.num_nodes(), k, rng);
    const sim::Machine machine = sim::Machine::reconfigured(ft, faults, target.num_nodes());
    const Graph live = machine.live_logical_graph(target);
    if (parallel_diameter(live) == target_diameter) ++matches;
  }
  std::ostringstream out;
  out << "reconfigured-diameter check for B^" << k << "_{2," << h << "}: " << matches << "/"
      << trials << " random fault sets preserve the target diameter " << target_diameter
      << " exactly (dilation-1 embedding)\n";
  return out.str();
}

}  // namespace ftdb::analysis
