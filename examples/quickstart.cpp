// Quickstart: build a fault-tolerant de Bruijn machine, kill k nodes,
// reconfigure, and verify the intact target network is still there.
//
//   $ ./quickstart [h] [k]
#include <cstdlib>
#include <iostream>

#include "ft/ft_debruijn.hpp"
#include "ft/reconfigure.hpp"
#include "ft/rng.hpp"
#include "ft/tolerance.hpp"
#include "topology/debruijn.hpp"

int main(int argc, char** argv) {
  const unsigned h = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 6;
  const unsigned k = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 3;

  using namespace ftdb;

  // 1. The target topology the parallel machine should always present.
  const Graph target = debruijn_base2(h);
  std::cout << "target B_{2," << h << "}: " << target.num_nodes() << " nodes, "
            << target.num_edges() << " edges, degree " << target.max_degree() << "\n";

  // 2. The fault-tolerant interconnect: N + k nodes, degree <= 4k + 4.
  const Graph ft = ft_debruijn_base2(h, k);
  std::cout << "fault-tolerant B^" << k << "_{2," << h << "}: " << ft.num_nodes()
            << " nodes, degree " << ft.max_degree() << " (bound " << 4 * k + 4 << ")\n";

  // 3. Fault k random nodes and run the paper's reconfiguration algorithm.
  SplitMix64 rng(2026);
  const FaultSet faults = FaultSet::random(ft.num_nodes(), k, rng);
  std::cout << "faulting nodes:";
  for (NodeId f : faults.nodes()) std::cout << ' ' << f;
  std::cout << "\n";

  const auto phi = monotone_embedding(faults);
  std::cout << "reconfigured: logical node x now lives at the (x+1)-st surviving node\n";

  // 4. Verify every target edge is alive (Theorem 1, on this fault set).
  Edge violated{};
  const bool ok = monotone_embedding_survives(target, ft, faults, &violated);
  if (!ok) {
    std::cout << "FAILED: target edge (" << violated.u << "," << violated.v
              << ") has no surviving physical link\n";
    return 1;
  }
  std::cout << "verified: all " << target.num_edges()
            << " target edges survive on healthy physical links\n";

  // 5. Prove it for every fault set of size <= k at once (Theorem 1).
  const auto report = check_tolerance_pairwise(target, ft, k);
  std::cout << "pairwise proof: every fault set of size <= " << k << " -> "
            << (report.tolerant ? "all tolerated" : "VIOLATION") << "\n";
  return report.tolerant ? 0 : 1;
}
