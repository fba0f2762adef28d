// ftdbtool — command-line front end for the library, for downstream users who
// want the graphs and the reconfiguration without writing C++.
//
//   ftdbtool gen  <m> <h>                 edge list of B_{m,h}
//   ftdbtool ft   <m> <h> <k>             edge list of B^k_{m,h}
//   ftdbtool se   <h>                     edge list of SE_h
//   ftdbtool dot  <m> <h> <k>             Graphviz DOT of B^k_{m,h} (k=0 -> target)
//   ftdbtool reconf <m> <h> <k> f1 f2 ..  logical->physical map after the faults
//   ftdbtool verify <m> <h> <k>           prove B^k_{m,h} tolerates every <= k faults
//   ftdbtool seq  <m> <n>                 a de Bruijn sequence B(m, n)
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "ft/ft_debruijn.hpp"
#include "ft/reconfigure.hpp"
#include "ft/tolerance.hpp"
#include "graph/io.hpp"
#include "topology/debruijn.hpp"
#include "topology/debruijn_sequence.hpp"
#include "topology/shuffle_exchange.hpp"

namespace {

int usage() {
  std::cerr << "usage:\n"
               "  ftdbtool gen  <m> <h>\n"
               "  ftdbtool ft   <m> <h> <k>\n"
               "  ftdbtool se   <h>\n"
               "  ftdbtool dot  <m> <h> <k>\n"
               "  ftdbtool reconf <m> <h> <k> <fault>...\n"
               "  ftdbtool verify <m> <h> <k>\n"
               "  ftdbtool seq  <m> <n>\n";
  return 2;
}

std::uint64_t arg_u64(char** argv, int i) { return std::strtoull(argv[i], nullptr, 10); }

}  // namespace

int main(int argc, char** argv) {
  using namespace ftdb;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen" && argc == 4) {
      std::cout << to_edge_list(debruijn_graph(
          {.base = arg_u64(argv, 2), .digits = static_cast<unsigned>(arg_u64(argv, 3))}));
      return 0;
    }
    if (cmd == "ft" && argc == 5) {
      std::cout << to_edge_list(ft_debruijn_graph({.base = arg_u64(argv, 2),
                                                   .digits = static_cast<unsigned>(arg_u64(argv, 3)),
                                                   .spares = static_cast<unsigned>(arg_u64(argv, 4))}));
      return 0;
    }
    if (cmd == "se" && argc == 3) {
      std::cout << to_edge_list(shuffle_exchange_graph(static_cast<unsigned>(arg_u64(argv, 2))));
      return 0;
    }
    if (cmd == "dot" && argc == 5) {
      const Graph g = ft_debruijn_graph({.base = arg_u64(argv, 2),
                                         .digits = static_cast<unsigned>(arg_u64(argv, 3)),
                                         .spares = static_cast<unsigned>(arg_u64(argv, 4))});
      DotOptions opts;
      opts.graph_name = "ftdb";
      std::cout << to_dot(g, opts);
      return 0;
    }
    if (cmd == "reconf" && argc >= 6) {
      const std::uint64_t m = arg_u64(argv, 2);
      const auto h = static_cast<unsigned>(arg_u64(argv, 3));
      const auto k = static_cast<unsigned>(arg_u64(argv, 4));
      const Graph target = debruijn_graph({.base = m, .digits = h});
      const Graph ft = ft_debruijn_graph({.base = m, .digits = h, .spares = k});
      std::vector<NodeId> faulty;
      for (int i = 5; i < argc; ++i) faulty.push_back(static_cast<NodeId>(arg_u64(argv, i)));
      if (faulty.size() > k) {
        std::cerr << "error: " << faulty.size() << " faults exceed the budget k=" << k << "\n";
        return 1;
      }
      const FaultSet faults(ft.num_nodes(), faulty);
      const auto phi = monotone_embedding(faults);
      const bool ok = monotone_embedding_survives(target, ft, faults);
      for (std::size_t x = 0; x < target.num_nodes(); ++x) {
        std::cout << x << " -> " << phi[x] << "\n";
      }
      std::cout << "# all target edges survive: " << (ok ? "yes" : "NO") << "\n";
      return ok ? 0 : 1;
    }
    if (cmd == "verify" && argc == 5) {
      const std::uint64_t m = arg_u64(argv, 2);
      const auto h = static_cast<unsigned>(arg_u64(argv, 3));
      const auto k = static_cast<unsigned>(arg_u64(argv, 4));
      const Graph target = debruijn_graph({.base = m, .digits = h});
      const Graph ft = ft_debruijn_graph({.base = m, .digits = h, .spares = k});
      const auto report = check_tolerance_pairwise(target, ft, k);
      if (report.tolerant) {
        std::cout << "proved: every fault set of size <= " << k << " is tolerated\n";
        return 0;
      }
      std::cout << "VIOLATION: faults {";
      for (std::size_t i = 0; i < report.counterexample_faults.size(); ++i) {
        std::cout << (i == 0 ? "" : " ") << report.counterexample_faults[i];
      }
      std::cout << "} break target edge (" << report.violated_edge.u << ", "
                << report.violated_edge.v << ")\n";
      return 1;
    }
    if (cmd == "seq" && argc == 4) {
      const auto seq =
          debruijn_sequence(arg_u64(argv, 2), static_cast<unsigned>(arg_u64(argv, 3)));
      for (std::size_t i = 0; i < seq.size(); ++i) {
        std::cout << seq[i] << (i + 1 < seq.size() ? " " : "\n");
      }
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
