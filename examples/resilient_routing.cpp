// Resilient routing demo: the same traffic on a degraded bare de Bruijn
// machine vs a reconfigured fault-tolerant machine.
//
//   $ ./resilient_routing [h] [k] [packets]
//
// Walks through the full operational story of the paper: faults on a bare
// constant-degree network break traffic (the introduction's motivation),
// while the B^k_{2,h} machine reconfigures and serves every packet at
// unchanged latency.
#include <cstdlib>
#include <iostream>

#include "ft/ft_debruijn.hpp"
#include "ft/rng.hpp"
#include "sim/engine.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"

int main(int argc, char** argv) {
  const unsigned h = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 6;
  const unsigned k = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 4;
  const std::size_t count = argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 2000;

  using namespace ftdb;
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, k);
  const auto packets = sim::uniform_traffic(target.num_nodes(), count, 8, 1);

  auto print = [](const char* name, const sim::SimStats& s) {
    std::cout << name << ": delivered " << s.delivered << "/" << s.injected << " ("
              << 100.0 * s.delivered_fraction() << "%), avg latency " << s.average_latency()
              << ", max latency " << s.max_latency << ", " << s.cycles << " cycles\n";
  };

  std::cout << "=== healthy bare target B_{2," << h << "} ===\n";
  const sim::Machine healthy = sim::Machine::direct(target);
  const auto base = sim::run_packets(healthy, target, packets);
  print("healthy", base);

  SplitMix64 rng(33);
  const FaultSet bare_faults = FaultSet::random(target.num_nodes(), k, rng);
  std::cout << "\n=== bare target, " << k << " faults (no spares) ===\nfaulty:";
  for (NodeId f : bare_faults.nodes()) std::cout << ' ' << f;
  std::cout << "\n";
  const sim::Machine degraded = sim::Machine::direct_with_faults(target, bare_faults);
  print("degraded", sim::run_packets(degraded, target, packets));

  const FaultSet ft_faults = FaultSet::random(ft.num_nodes(), k, rng);
  std::cout << "\n=== fault-tolerant B^" << k << "_{2," << h << "}, same fault count ===\nfaulty:";
  for (NodeId f : ft_faults.nodes()) std::cout << ' ' << f;
  std::cout << "\n";
  const sim::Machine reconf = sim::Machine::reconfigured(ft, ft_faults, target.num_nodes());
  const auto after = sim::run_packets(reconf, target, packets);
  print("reconfigured", after);

  const bool identical = after.delivered == base.delivered &&
                         after.total_latency == base.total_latency &&
                         after.cycles == base.cycles;
  std::cout << "\nreconfigured machine matches the healthy machine exactly: "
            << (identical ? "yes" : "NO") << "\n";
  return identical ? 0 : 1;
}
