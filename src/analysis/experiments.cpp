#include "analysis/experiments.hpp"

#include <cmath>
#include <sstream>

#include "ft/bus_ft.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "ft/reconfigure.hpp"
#include "ft/samatham_pradhan.hpp"
#include "ft/tolerance.hpp"
#include "graph/io.hpp"
#include "topology/debruijn.hpp"
#include "topology/labels.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::analysis {

namespace {

std::vector<std::string> binary_labels(std::uint64_t n, unsigned h) {
  std::vector<std::string> out(n);
  for (std::uint64_t x = 0; x < n; ++x) {
    std::string bits(h, '0');
    for (unsigned i = 0; i < h; ++i) {
      if ((x >> (h - 1 - i)) & 1u) bits[i] = '1';
    }
    out[x] = bits;
  }
  return out;
}

}  // namespace

std::string figure1_debruijn_b24() {
  const Graph g = debruijn_base2(4);
  std::ostringstream out;
  out << "Figure 1: the base-2 four-digit de Bruijn graph B_{2,4}\n";
  out << "nodes=" << g.num_nodes() << " edges=" << g.num_edges()
      << " max_degree=" << g.max_degree() << "\n\n";
  out << "Adjacency (node: neighbors):\n" << format_adjacency(g) << '\n';
  DotOptions opts;
  opts.graph_name = "B_2_4";
  opts.node_labels = binary_labels(g.num_nodes(), 4);
  out << to_dot(g, opts);
  return out.str();
}

std::string figure2_ft_debruijn_b124() {
  const Graph g = ft_debruijn_base2(4, 1);
  std::ostringstream out;
  out << "Figure 2: the fault-tolerant graph B^1_{2,4} (17 nodes, degree <= 8)\n";
  out << "nodes=" << g.num_nodes() << " edges=" << g.num_edges()
      << " max_degree=" << g.max_degree() << " (bound 4k+4 = 8)\n\n";
  out << "Adjacency (node: neighbors):\n" << format_adjacency(g) << '\n';
  DotOptions opts;
  opts.graph_name = "B1_2_4";
  out << to_dot(g, opts);
  return out.str();
}

std::string figure3_reconfiguration(std::uint32_t faulty_node) {
  const unsigned h = 4;
  const unsigned k = 1;
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, k);
  const FaultSet faults(ft.num_nodes(), {faulty_node});
  const auto phi = monotone_embedding(faults);

  std::ostringstream out;
  out << "Figure 3: new labels of B^1_{2,4} after the fault at node " << faulty_node << "\n\n";
  out << "physical -> new logical label (monotone rank embedding):\n";
  const auto inverse = inverse_embedding(phi, ft.num_nodes());
  for (std::size_t p = 0; p < ft.num_nodes(); ++p) {
    out << "  node " << p << ": ";
    if (faults.is_faulty(static_cast<NodeId>(p))) {
      out << "FAULTY\n";
    } else {
      out << "logical " << inverse[p] << " = "
          << labels::to_digit_string(inverse[p], 2, h) << "_2\n";
    }
  }
  // Edges used after reconfiguration: the images of the target's edges.
  std::vector<Edge> used;
  for (const Edge& e : target.edges()) used.push_back(Edge{phi[e.u], phi[e.v]});
  out << "\nedges used after reconfiguration (solid in the paper's figure): " << used.size()
      << " of " << ft.num_edges() << "\n";
  DotOptions opts;
  opts.graph_name = "B1_2_4_reconfigured";
  opts.highlighted_nodes = {faulty_node};
  opts.solid_edges = used;
  out << to_dot(ft, opts);
  return out.str();
}

std::string figure4_bus_implementation() {
  const unsigned h = 3;
  const unsigned k = 1;
  const BusGraph fabric = bus_ft_debruijn_base2(h, k);
  std::ostringstream out;
  out << "Figure 4: bus implementation of B^1_{2,3} (one bus per node, "
      << "block of 2k+2 = 4 consecutive nodes from (2i-k) mod 9)\n";
  out << "nodes=" << fabric.num_nodes() << " buses=" << fabric.num_buses()
      << " max_bus_degree=" << fabric.max_bus_degree() << " (bound 2k+3 = "
      << bus_ft_degree_bound(k) << ")\n\n";
  for (std::size_t i = 0; i < fabric.num_buses(); ++i) {
    const Bus& b = fabric.bus(i);
    out << "bus " << i << ": driver " << b.driver << " -> members {";
    for (std::size_t j = 0; j < b.members.size(); ++j) {
      out << b.members[j] << (j + 1 < b.members.size() ? ", " : "");
    }
    out << "}\n";
  }
  return out.str();
}

std::string figure5_bus_reconfiguration(std::uint32_t faulty_node) {
  const unsigned h = 3;
  const unsigned k = 1;
  const Graph target = debruijn_base2(h);
  const BusGraph fabric = bus_ft_debruijn_base2(h, k);
  const FaultSet faults(fabric.num_nodes(), {faulty_node});
  const auto phi = monotone_embedding(faults);

  std::ostringstream out;
  out << "Figure 5: reconfiguration after the fault at node " << faulty_node
      << " in the bus implementation of B^1_{2,3}\n\n";
  const auto inverse = inverse_embedding(phi, fabric.num_nodes());
  for (std::size_t p = 0; p < fabric.num_nodes(); ++p) {
    out << "  node " << p << ": ";
    if (faults.is_faulty(static_cast<NodeId>(p))) {
      out << "FAULTY\n";
    } else {
      out << "logical " << inverse[p] << " = "
          << labels::to_digit_string(inverse[p], 2, h) << "_2\n";
    }
  }
  out << "\nbus connections used by the embedded B_{2,3} edges:\n";
  for (const Edge& e : target.edges()) {
    out << "  logical (" << e.u << "," << e.v << ") -> physical (" << phi[e.u] << ","
        << phi[e.v] << ") : "
        << (fabric.can_communicate(phi[e.u], phi[e.v]) ? "OK" : "MISSING") << "\n";
  }
  out << "\nsurvives = " << (bus_monotone_embedding_survives(target, fabric, faults) ? "yes" : "NO")
      << "\n";
  return out.str();
}

Table table1_comparison_base2(unsigned h_min, unsigned h_max, unsigned k_max) {
  Table t({"h", "N=2^h", "k", "ours nodes (N+k)", "ours degree (4k+4)",
           "S-P nodes (N^log2(2k+1))", "S-P degree (4k+2)", "node ratio (S-P/ours)"});
  for (unsigned h = h_min; h <= h_max; ++h) {
    const std::uint64_t n = labels::ipow_checked(2, h);
    for (unsigned k = 1; k <= k_max; ++k) {
      const std::uint64_t ours_nodes = n + k;
      const std::uint64_t ours_deg = 4ull * k + 4;
      // N^{log2(2k+1)} = (2k+1)^h.
      const std::uint64_t sp_nodes = labels::ipow_checked(2 * k + 1, h);
      const std::uint64_t sp_deg = sp_degree(2, k);
      t.add_row({fmt_u64(h), fmt_u64(n), fmt_u64(k), fmt_u64(ours_nodes), fmt_u64(ours_deg),
                 fmt_u64(sp_nodes), fmt_u64(sp_deg),
                 fmt_ratio(static_cast<double>(sp_nodes) / static_cast<double>(ours_nodes))});
    }
  }
  return t;
}

Table table2_comparison_basem(unsigned h, unsigned k_max) {
  Table t({"m", "h", "N=m^h", "k", "ours nodes", "ours degree (4(m-1)k+2m)", "S-P nodes",
           "S-P degree (2mk+2)"});
  for (std::uint64_t m = 2; m <= 5; ++m) {
    const std::uint64_t n = labels::ipow_checked(m, h);
    for (unsigned k = 1; k <= k_max; ++k) {
      t.add_row({fmt_u64(m), fmt_u64(h), fmt_u64(n), fmt_u64(k), fmt_u64(n + k),
                 fmt_u64(ft_debruijn_degree_bound({.base = m, .digits = h, .spares = k})),
                 fmt_u64(sp_num_nodes(m, h, k)), fmt_u64(sp_degree(m, k))});
    }
  }
  return t;
}

Table table3_degree_bounds(unsigned h, unsigned k_max) {
  Table t({"construction", "h", "m", "k", "nodes", "measured max degree", "stated bound",
           "within bound"});
  for (unsigned k = 0; k <= k_max; ++k) {
    {
      const Graph g = ft_debruijn_base2(h, k);
      const std::uint64_t bound = 4ull * k + 4;
      t.add_row({"B^k_{2,h}", fmt_u64(h), "2", fmt_u64(k), fmt_u64(g.num_nodes()),
                 fmt_u64(g.max_degree()), fmt_u64(bound),
                 g.max_degree() <= bound ? "yes" : "NO"});
    }
    for (std::uint64_t m = 3; m <= 4; ++m) {
      const FtDeBruijnParams params{.base = m, .digits = 3, .spares = k};
      const Graph g = ft_debruijn_graph(params);
      const std::uint64_t bound = ft_debruijn_degree_bound(params);
      t.add_row({"B^k_{m,h}", "3", fmt_u64(m), fmt_u64(k), fmt_u64(g.num_nodes()),
                 fmt_u64(g.max_degree()), fmt_u64(bound),
                 g.max_degree() <= bound ? "yes" : "NO"});
    }
    {
      const BusGraph fabric = bus_ft_debruijn_base2(h, k);
      const std::uint64_t bound = bus_ft_degree_bound(k);
      t.add_row({"bus B^k_{2,h}", fmt_u64(h), "2", fmt_u64(k), fmt_u64(fabric.num_nodes()),
                 fmt_u64(fabric.max_bus_degree()), fmt_u64(bound),
                 fabric.max_bus_degree() <= bound ? "yes" : "NO"});
    }
    {
      const auto machine = ft_shuffle_exchange_natural(h, k);
      const std::uint64_t paper = ft_se_natural_degree_bound_paper(k);
      const std::uint64_t ours = ft_se_natural_degree_bound_ours(k);
      t.add_row({"SE natural", fmt_u64(h), "2", fmt_u64(k),
                 fmt_u64(machine.ft_graph.num_nodes()), fmt_u64(machine.ft_graph.max_degree()),
                 fmt_u64(paper) + " (paper) / " + fmt_u64(ours) + " (ours)",
                 machine.ft_graph.max_degree() <= ours ? "yes" : "NO"});
    }
  }
  return t;
}

Table table4_tolerance_verification() {
  Table t({"construction", "m", "h", "k", "method", "fault sets covered", "tolerant"});
  auto add = [&](const std::string& name, std::uint64_t m, unsigned h, unsigned k,
                 const Graph& target, const Graph& ft) {
    const std::uint64_t space = binomial(ft.num_nodes(), k);
    const bool exhaustive = space <= 20000;
    const ToleranceReport report = exhaustive ? check_tolerance_exhaustive(target, ft, k)
                                              : check_tolerance_pairwise(target, ft, k);
    t.add_row({name, fmt_u64(m), fmt_u64(h), fmt_u64(k), exhaustive ? "exhaustive" : "pairwise",
               fmt_u64(space), report.tolerant ? "yes" : "NO"});
  };
  for (unsigned k = 1; k <= 3; ++k) {
    add("B^k_{2,h}", 2, 4, k, debruijn_base2(4), ft_debruijn_base2(4, k));
    add("B^k_{2,h}", 2, 7, k, debruijn_base2(7), ft_debruijn_base2(7, k));
    add("B^k_{3,h}", 3, 3, k, debruijn_graph({.base = 3, .digits = 3}),
        ft_debruijn_graph({.base = 3, .digits = 3, .spares = k}));
    const auto se = ft_shuffle_exchange_natural(4, k);
    add("SE natural", 2, 4, k, shuffle_exchange_graph(4), se.ft_graph);
  }
  return t;
}

}  // namespace ftdb::analysis
