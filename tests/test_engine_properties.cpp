// Property tests for the store-and-forward engine on random topologies and
// workloads: conservation, latency lower bounds, work bounds,
// reconfiguration equivalence as a universally quantified property, and a
// differential check against a per-packet reference stepper.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <string>

#include "ft/ft_debruijn.hpp"
#include "graph/algorithms.hpp"
#include "sim/engine.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"
#include "topology/hypercube.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {
namespace {

Graph random_connected_graph(std::size_t n, std::mt19937_64& rng) {
  GraphBuilder b(n);
  // Random spanning tree, then extra chords.
  for (std::size_t v = 1; v < n; ++v) {
    std::uniform_int_distribution<std::size_t> parent(0, v - 1);
    b.add_edge(static_cast<NodeId>(parent(rng)), static_cast<NodeId>(v));
  }
  std::uniform_int_distribution<std::size_t> any(0, n - 1);
  for (std::size_t extra = 0; extra < n; ++extra) {
    b.add_edge(static_cast<NodeId>(any(rng)), static_cast<NodeId>(any(rng)));
  }
  return b.build();
}

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperty, ConservationAndLatencyBounds) {
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 8 + rng() % 40;
  const Graph g = random_connected_graph(n, rng);
  const Machine m = Machine::direct(g);
  const auto packets = uniform_traffic(n, 150, 3, GetParam() * 7 + 1);
  const SimStats stats = run_packets(m, g, packets);

  // Conservation: every packet is accounted for.
  EXPECT_EQ(stats.injected, packets.size());
  EXPECT_EQ(stats.delivered + stats.undeliverable, stats.injected);
  EXPECT_EQ(stats.undeliverable, 0u);  // connected machine

  // Work bound: total hops at least the sum of shortest distances.
  std::uint64_t lower = 0;
  for (const Packet& p : packets) {
    const auto dist = bfs_distances(g, p.src);
    lower += dist[p.dst];
  }
  EXPECT_GE(stats.total_hops, lower);

  // Latency bound: max latency at least the max shortest distance of any
  // packet, and cycles at least max latency... cycles count from time zero,
  // so cycles >= max inject + 1 hop for any non-self packet.
  EXPECT_LE(stats.throughput(), static_cast<double>(2 * g.num_edges()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class ReconfEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReconfEquivalence, AnyFaultSetAnyTrafficMatchesHealthyRun) {
  // Universal property: for random fault sets and random traffic, the
  // reconfigured FT machine's statistics equal the healthy target's.
  const unsigned h = 5;
  const unsigned k = 4;
  SplitMix64 rng(GetParam());
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, k);
  const auto packets = uniform_traffic(target.num_nodes(), 250, 4, GetParam());

  const SimStats healthy = run_packets(Machine::direct(target), target, packets);
  const FaultSet faults = FaultSet::random(ft.num_nodes(), k, rng);
  const SimStats reconf =
      run_packets(Machine::reconfigured(ft, faults, target.num_nodes()), target, packets);

  EXPECT_EQ(reconf.delivered, healthy.delivered);
  EXPECT_EQ(reconf.undeliverable, 0u);
  EXPECT_EQ(reconf.total_latency, healthy.total_latency);
  EXPECT_EQ(reconf.total_hops, healthy.total_hops);
  EXPECT_EQ(reconf.max_latency, healthy.max_latency);
  EXPECT_EQ(reconf.cycles, healthy.cycles);
  EXPECT_EQ(reconf.max_queue_depth, healthy.max_queue_depth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconfEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 110));

TEST(EngineProperty, HeavierLoadNeverDecreasesCycles) {
  // Monotonicity sanity: adding packets to the same workload cannot finish
  // sooner.
  const Graph g = hypercube_graph(5);
  const Machine m = Machine::direct(g);
  const auto small = uniform_traffic(32, 100, 4, 9);
  auto big = small;
  const auto more = uniform_traffic(32, 100, 4, 10);
  for (const auto& p : more) big.push_back(p);
  const auto s1 = run_packets(m, g, small);
  const auto s2 = run_packets(m, g, big);
  EXPECT_GE(s2.cycles, s1.cycles);
  EXPECT_EQ(s2.delivered, 200u);
}

TEST(EngineProperty, SingleSourceFloodDrainsInDegreeBoundedTime) {
  // One node sends to everyone: the source's out-links are the bottleneck;
  // the run must take at least ceil((N-1)/deg(src)) cycles.
  const Graph g = debruijn_base2(5);
  const Machine m = Machine::direct(g);
  std::vector<Packet> packets;
  for (NodeId d = 1; d < 32; ++d) packets.push_back({d, 0, d, 0});
  const auto stats = run_packets(m, g, packets);
  EXPECT_EQ(stats.delivered, 31u);
  EXPECT_GE(stats.cycles, (31 + g.degree(0) - 1) / g.degree(0));
}

/// The engine's semantics, one packet at a time: every packet is checked and
/// routed on its own at injection, each directed link is a std::deque visited
/// in (from, to) order — the engine's link-id order — and a cycle first pops
/// every non-empty link's head, then delivers or queues the arrivals in that
/// order. Routes come from the simulator's own router; what is under test is
/// injection, queueing and accounting.
SimStats reference_run(const Machine& machine, const PacketSimulator& sim,
                       std::vector<Packet> packets, std::uint64_t max_cycles) {
  struct Flight {
    NodeId dst;
    std::uint64_t inject_cycle;
    std::uint64_t hops;
  };
  const Router& router = sim.router();
  const auto live = [&](NodeId v) { return !machine.dead[machine.to_physical[v]]; };
  std::stable_sort(packets.begin(), packets.end(), [](const Packet& a, const Packet& b) {
    return a.inject_cycle < b.inject_cycle;
  });
  std::map<std::pair<NodeId, NodeId>, std::deque<Flight>> links;
  SimStats s;
  std::size_t next = 0;
  std::uint64_t in_flight = 0;
  for (; next < packets.size() || in_flight > 0; ++s.cycles) {
    if (max_cycles != 0 && s.cycles >= max_cycles) break;
    for (; next < packets.size() && packets[next].inject_cycle <= s.cycles; ++next) {
      const Packet& p = packets[next];
      ++s.injected;
      if (!live(p.src) || !live(p.dst) || !router.reachable(p.dst, p.src)) {
        ++s.undeliverable;
      } else if (p.src == p.dst) {
        ++s.delivered;
      } else {
        links[{p.src, router.next_hop(p.dst, p.src)}].push_back({p.dst, p.inject_cycle, 0});
        ++in_flight;
      }
    }
    std::size_t depth = 0;
    std::vector<std::pair<NodeId, Flight>> arrivals;
    for (auto& [link, queue] : links) {
      if (queue.empty()) continue;
      arrivals.emplace_back(link.second, queue.front());
      queue.pop_front();
      ++arrivals.back().second.hops;
      depth = std::max(depth, queue.size());
    }
    for (const auto& [at, f] : arrivals) {
      if (at == f.dst) {
        --in_flight;
        ++s.delivered;
        const std::uint64_t latency = s.cycles + 1 - f.inject_cycle;
        s.total_latency += latency;
        s.max_latency = std::max(s.max_latency, latency);
        s.total_hops += f.hops;
      } else {
        auto& queue = links[{at, router.next_hop(f.dst, at)}];
        queue.push_back(f);
        depth = std::max(depth, queue.size());
      }
    }
    s.max_queue_depth = std::max(s.max_queue_depth, depth);
  }
  s.timed_out = in_flight;
  return s;
}

/// A batch built from runs of identical (src, dst, inject_cycle) packets:
/// long runs, runs broken by one different packet, a flow's next run one
/// cycle later, self-sends and any endpoint (dead or cut off ones included),
/// due over a few cycles so later runs land on non-empty queues. Unless `sorted`, runs come in random cycle
/// order.
std::vector<Packet> run_batch(std::size_t n, SplitMix64& rng, bool sorted) {
  std::vector<Packet> packets;
  const auto add = [&](NodeId src, NodeId dst, std::uint64_t cycle, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      packets.push_back({packets.size(), src, dst, cycle});
    }
  };
  std::uint64_t cycle = 0;
  for (std::uint64_t runs = 4 + rng.next_below(24); runs > 0; --runs) {
    cycle = sorted ? cycle + rng.next_below(3) : rng.next_below(12);
    const auto src = static_cast<NodeId>(rng.next_below(n));
    const auto dst = rng.next_below(6) == 0 ? src : static_cast<NodeId>(rng.next_below(n));
    const std::uint64_t count = 1 + rng.next_below(rng.next_below(2) == 0 ? 4 : 40);
    add(src, dst, cycle, count);
    if (rng.next_below(3) == 0) {  // one different packet, then the run goes on
      add(src, static_cast<NodeId>((dst + 1) % n), cycle, 1);
      add(src, dst, cycle, 1 + rng.next_below(20));
    } else if (rng.next_below(2) == 0) {  // the same flow again, one cycle later
      add(src, dst, ++cycle, 1 + rng.next_below(20));
    }
  }
  return packets;
}

void expect_same_stats(const SimStats& want, const SimStats& got, const std::string& what) {
  EXPECT_EQ(got.injected, want.injected) << what;
  EXPECT_EQ(got.delivered, want.delivered) << what;
  EXPECT_EQ(got.undeliverable, want.undeliverable) << what;
  EXPECT_EQ(got.timed_out, want.timed_out) << what;
  EXPECT_EQ(got.cycles, want.cycles) << what;
  EXPECT_EQ(got.total_latency, want.total_latency) << what;
  EXPECT_EQ(got.max_latency, want.max_latency) << what;
  EXPECT_EQ(got.total_hops, want.total_hops) << what;
  EXPECT_EQ(got.max_queue_depth, want.max_queue_depth) << what;
}

TEST(EngineDifferential, MatchesPerPacketReferenceOnRunBatches) {
  // Faults {1, 16} cut B_{2,5}'s node 0 off and {1} cuts SE_5's, so runs
  // also start or end at a live but unreachable node.
  const std::vector<std::pair<std::string, Graph>> targets = {
      {"B_{2,5}", debruijn_base2(5)}, {"SE_5", shuffle_exchange_graph(5)}};
  const std::vector<std::vector<NodeId>> faults = {{1, 16, 7, 22}, {1, 9, 20}};
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const Graph& target = targets[t].second;
    const std::size_t n = target.num_nodes();
    const std::vector<std::pair<std::string, Machine>> machines = {
        {"healthy", Machine::direct(target)},
        {"degraded", Machine::direct_with_faults(target, FaultSet(n, faults[t]))}};
    for (const auto& [state, machine] : machines) {
      for (const auto backend : {RouterOptions::Backend::Table, RouterOptions::Backend::Compressed}) {
        PacketSimulator sim(machine, target, RouterOptions{backend});
        SplitMix64 rng(n * 31 + t);
        for (int b = 0; b < 40; ++b) {
          const auto packets = run_batch(n, rng, b % 3 != 0);
          const std::uint64_t max_cycles = b % 4 == 1 ? 1 + rng.next_below(8) : 0;
          const SimStats want = reference_run(machine, sim, packets, max_cycles);
          // Capping an undrained run one cycle past the reference's drain
          // turns a lost packet into a timed_out mismatch instead of a hang.
          const std::string what = targets[t].first + " " + state + " backend " +
                                   std::to_string(static_cast<int>(backend)) + " batch " +
                                   std::to_string(b);
          expect_same_stats(want, sim.run(packets, max_cycles != 0 ? max_cycles : want.cycles + 1),
                            what);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ftdb::sim
