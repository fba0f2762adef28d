// Router equivalence: the three backends (implicit algebra, shape-delta
// compressed tables, BFS table slab) implement one canonical policy —
// shortest paths stepped through the lowest-id closer neighbor — so they must
// be hop-for-hop identical wherever they all apply, and all must agree with a
// plain BFS oracle. Covered: healthy B_{m,h} and SE_h over the (m,h) grid,
// reconfigured machines (the dilation-1 case where the implicit backend keeps
// working), degraded machines (the fallback case), shape detection /
// auto-selection, and next-hop totality + termination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "graph/algorithms.hpp"
#include "sim/network.hpp"
#include "sim/reconfigured_routing.hpp"
#include "sim/router.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {
namespace {

RouterOptions forced(RouterOptions::Backend backend) {
  RouterOptions options;
  options.backend = backend;
  return options;
}

/// Target shape with every edge incident to a fault removed — the degraded
/// machine model (dead nodes keep their ids, traffic routes around them).
Graph degraded_graph(const Graph& target, const std::vector<NodeId>& faults) {
  std::vector<bool> dead(target.num_nodes(), false);
  for (const NodeId f : faults) dead[f] = true;
  GraphBuilder b(target.num_nodes());
  for (NodeId u = 0; u < target.num_nodes(); ++u) {
    if (dead[u]) continue;
    for (const NodeId w : target.neighbors(u)) {
      if (u < w && !dead[w]) b.add_edge(u, w);
    }
  }
  return b.build();
}

/// All-pairs agreement of `routers` with each other and with the BFS oracle:
/// identical distances, hop-for-hop identical paths, and next-hop totality
/// (every hop is a real neighbor strictly closer to the destination).
void expect_equivalent(const Graph& g, const std::vector<const Router*>& routers,
                       const std::string& context) {
  const std::size_t n = g.num_nodes();
  for (const Router* r : routers) ASSERT_EQ(r->num_nodes(), n) << context;
  for (NodeId src = 0; src < n; ++src) {
    const auto oracle = bfs_distances(g, src);
    for (NodeId dst = 0; dst < n; ++dst) {
      const std::uint32_t expected = oracle[dst];
      std::vector<NodeId> reference_path;
      for (std::size_t i = 0; i < routers.size(); ++i) {
        const Router* r = routers[i];
        ASSERT_EQ(r->distance(dst, src), expected)
            << context << " backend=" << router_backend_name(r->backend()) << " " << +src
            << "->" << +dst;
        ASSERT_EQ(r->reachable(dst, src), expected != kUnreachable)
            << context << " backend=" << router_backend_name(r->backend());
        const std::vector<NodeId> path = r->path(src, dst);
        if (expected == kUnreachable) {
          EXPECT_TRUE(path.empty()) << context;
          EXPECT_EQ(r->next_hop(dst, src), kInvalidNode) << context;
          continue;
        }
        // Totality + termination: the walk ends at dst in exactly
        // distance() hops, every step a neighbor one unit closer.
        ASSERT_EQ(path.size(), static_cast<std::size_t>(expected) + 1) << context;
        ASSERT_EQ(path.front(), src) << context;
        ASSERT_EQ(path.back(), dst) << context;
        for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
          ASSERT_TRUE(g.has_edge(path[hop], path[hop + 1]))
              << context << " backend=" << router_backend_name(r->backend());
          // On a shortest path, the node after `hop` steps sits exactly
          // `hop` from the source — every step makes strict progress.
          ASSERT_EQ(oracle[path[hop]], static_cast<std::uint32_t>(hop)) << context;
        }
        // Hop-for-hop identity across backends.
        if (i == 0) {
          reference_path = path;
        } else {
          EXPECT_EQ(path, reference_path)
              << context << " backend=" << router_backend_name(r->backend()) << " vs "
              << router_backend_name(routers[0]->backend()) << " " << +src << "->" << +dst;
        }
      }
    }
  }
  // Batched queries: route_many (with and without hints) and distance_many
  // over every pair must be hop-for-hop identical to the scalar loops on
  // every backend (the implicit backend's hinted overload runs
  // witness-seeded scans of its own).
  std::vector<NodeId> dests, nodes, hops(n * n), hinted(n * n);
  std::vector<std::uint32_t> dists(n * n);
  dests.reserve(n * n);
  nodes.reserve(n * n);
  for (NodeId dst = 0; dst < n; ++dst) {
    for (NodeId src = 0; src < n; ++src) {
      dests.push_back(dst);
      nodes.push_back(src);
    }
  }
  for (const Router* r : routers) {
    std::vector<RouteHint> hints(n * n);
    r->route_many(dests, nodes, hops);
    r->route_many(dests, nodes, hinted, hints);
    r->distance_many(dests, nodes, dists);
    for (std::size_t i = 0; i < dests.size(); ++i) {
      ASSERT_EQ(hops[i], r->next_hop(dests[i], nodes[i]))
          << context << " backend=" << router_backend_name(r->backend()) << " " << +nodes[i]
          << "->" << +dests[i];
      ASSERT_EQ(hinted[i], hops[i])
          << context << " backend=" << router_backend_name(r->backend()) << " hinted";
      ASSERT_EQ(dists[i], r->distance(dests[i], nodes[i]))
          << context << " backend=" << router_backend_name(r->backend());
    }
  }
}

struct Params {
  std::uint64_t m;
  unsigned h;
};

class DeBruijnRouterGrid : public ::testing::TestWithParam<Params> {};

TEST_P(DeBruijnRouterGrid, HealthyBackendsMatchOracleHopForHop) {
  const auto [m, h] = GetParam();
  const Graph g = debruijn_graph({.base = m, .digits = h});

  // Below the size-aware threshold Auto prefers the table; forcing the
  // implicit backend must still find the shape (it throws otherwise).
  ASSERT_EQ(make_router(g)->backend(), RouterBackend::Table)
      << "small healthy B_{m,h} must auto-select the table";
  const auto implicit = make_router(g, forced(RouterOptions::Backend::Implicit));
  ASSERT_EQ(implicit->backend(), RouterBackend::Implicit)
      << "healthy B_{m,h} must be recognized as implicit-routable";
  EXPECT_EQ(implicit->memory_bytes(), 0u);

  const TableRouter table(g);
  const CompressedRouter compressed(g);
  expect_equivalent(g, {&table, implicit.get(), &compressed},
                    "B(m=" + std::to_string(m) + ",h=" + std::to_string(h) + ")");

  // On a healthy shape the compressed backend rides the algebraic reference
  // with zero exceptions — O(N + E) memory, far under the N^2 slab.
  EXPECT_STREQ(compressed.stats().reference, "debruijn");
  EXPECT_EQ(compressed.num_exceptions(), 0u);
  if (g.num_nodes() >= 64) EXPECT_LT(compressed.memory_bytes(), table.memory_bytes());
}

TEST_P(DeBruijnRouterGrid, ReconfiguredDilationOneKeepsImplicitRouting) {
  const auto [m, h] = GetParam();
  const unsigned k = 2;
  const Graph target = debruijn_graph({.base = m, .digits = h});
  const Graph ft = ft_debruijn_graph({.base = m, .digits = h, .spares = k});
  SplitMix64 rng(1000 * m + h);
  for (int trial = 0; trial < 3; ++trial) {
    const FaultSet faults = FaultSet::random(ft.num_nodes(), k, rng);
    const Machine machine = Machine::reconfigured(ft, faults, target.num_nodes());
    // Theorems 1/2: any <= k faults reconfigure with dilation 1, so the live
    // logical graph is the intact target and the implicit backend applies.
    const Graph live = machine.live_logical_graph(target);
    ASSERT_TRUE(live.same_structure(target)) << "trial " << trial;
    const auto router =
        machine_logical_router(machine, target, forced(RouterOptions::Backend::Implicit));
    ASSERT_EQ(router->backend(), RouterBackend::Implicit) << "trial " << trial;
    const TableRouter table(live);
    expect_equivalent(live, {&table, router.get()},
                      "reconfigured B(m=" + std::to_string(m) + ",h=" + std::to_string(h) +
                          ") trial " + std::to_string(trial));
  }
}

TEST_P(DeBruijnRouterGrid, DegradedMachineFallsBackAndStaysEquivalent) {
  const auto [m, h] = GetParam();
  const Graph target = debruijn_graph({.base = m, .digits = h});
  SplitMix64 rng(77 * m + h);
  const FaultSet faults = FaultSet::random(target.num_nodes(), 2, rng);
  const Machine machine = Machine::direct_with_faults(target, faults);
  const Graph live = machine.live_logical_graph(target);

  EXPECT_THROW(machine_logical_router(machine, target, forced(RouterOptions::Backend::Implicit)),
               std::invalid_argument)
      << "dead nodes break the algebraic shape";
  // The degraded machine is still a subgraph of its shape, so the compressed
  // backend shares the algebra and stores only the fault detours.
  const auto router =
      machine_logical_router(machine, target, forced(RouterOptions::Backend::Compressed));
  const auto* compressed = dynamic_cast<const CompressedRouter*>(router.get());
  ASSERT_NE(compressed, nullptr);
  EXPECT_STREQ(compressed->stats().reference, "debruijn");
  EXPECT_GT(compressed->num_exceptions(), 0u);  // dead rows at minimum
  if (live.num_nodes() >= 64) {
    // Sparse at scale: the detours around 2 faults are a sliver of N^2.
    EXPECT_LT(compressed->num_exceptions(), live.num_nodes() * live.num_nodes() / 4);
  }
  const TableRouter table(live);
  expect_equivalent(live, {&table, router.get()},
                    "degraded B(m=" + std::to_string(m) + ",h=" + std::to_string(h) + ")");
}

INSTANTIATE_TEST_SUITE_P(Grid, DeBruijnRouterGrid,
                         ::testing::Values(Params{2, 2}, Params{2, 3}, Params{2, 4},
                                           Params{3, 2}, Params{3, 3}, Params{3, 4},
                                           Params{4, 2}, Params{4, 3}, Params{4, 4}),
                         [](const ::testing::TestParamInfo<Params>& info) {
                           return "m" + std::to_string(info.param.m) + "_h" +
                                  std::to_string(info.param.h);
                         });

class SeRouterGrid : public ::testing::TestWithParam<unsigned> {};

TEST_P(SeRouterGrid, HealthyBackendsMatchOracleHopForHop) {
  const unsigned h = GetParam();
  const Graph g = shuffle_exchange_graph(h);
  ASSERT_EQ(make_router(g)->backend(), RouterBackend::Table);
  const auto implicit = make_router(g, forced(RouterOptions::Backend::Implicit));
  ASSERT_EQ(implicit->backend(), RouterBackend::Implicit);
  const TableRouter table(g);
  const CompressedRouter compressed(g);
  expect_equivalent(g, {&table, implicit.get(), &compressed},
                    "SE(h=" + std::to_string(h) + ")");
}

TEST_P(SeRouterGrid, ReconfiguredNaturalFtSeKeepsImplicitRouting) {
  const unsigned h = GetParam();
  const unsigned k = 2;
  const Graph target = shuffle_exchange_graph(h);
  const auto ft = ft_shuffle_exchange_natural(h, k);
  SplitMix64 rng(900 + h);
  const FaultSet faults = FaultSet::random(ft.ft_graph.num_nodes(), k, rng);
  const Machine machine = Machine::reconfigured(ft.ft_graph, faults, target.num_nodes());
  ASSERT_TRUE(machine.live_logical_graph(target).same_structure(target));
  const auto router =
      machine_logical_router(machine, target, forced(RouterOptions::Backend::Implicit));
  ASSERT_EQ(router->backend(), RouterBackend::Implicit);
  const TableRouter table(target);
  expect_equivalent(target, {&table, router.get()},
                    "reconfigured SE(h=" + std::to_string(h) + ")");
}

INSTANTIATE_TEST_SUITE_P(Grid, SeRouterGrid, ::testing::Values(2, 3, 4, 5));

TEST(MakeRouter, ForcingImplicitOnUnshapedGraphThrows) {
  const Graph g = make_graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_THROW(make_router(g, forced(RouterOptions::Backend::Implicit)), std::invalid_argument);
}

TEST(MakeRouter, ForcedBackendsAreHonored) {
  const Graph g = debruijn_base2(3);
  EXPECT_EQ(make_router(g, forced(RouterOptions::Backend::Table))->backend(),
            RouterBackend::Table);
  EXPECT_EQ(make_router(g, forced(RouterOptions::Backend::Compressed))->backend(),
            RouterBackend::Compressed);
  EXPECT_EQ(make_router(g, forced(RouterOptions::Backend::Implicit))->backend(),
            RouterBackend::Implicit);
}

TEST(MakeRouter, HighDegreeUnshapedGraphGetsTheTable) {
  // A star sits inside no reference shape: auto must pick the table.
  GraphBuilder builder(20);
  for (NodeId v = 1; v < 20; ++v) builder.add_edge(0, v);
  const Graph g = builder.build();
  const auto router = make_router(g);
  EXPECT_EQ(router->backend(), RouterBackend::Table);
}

TEST(MakeRouter, SizeAwarePolicyPrefersTableBelowThreshold) {
  // Below the default 2^12 threshold a shaped machine gets the table: same
  // canonical hops, O(1) lookups, slab cheap at this size.
  const Graph small = debruijn_base2(6);  // 64 nodes
  EXPECT_EQ(make_router(small)->backend(), RouterBackend::Table);
  // At the threshold and above, the O(1)-memory algebra wins.
  const Graph big = debruijn_graph({.base = 2, .digits = 12});  // exactly 2^12
  ASSERT_EQ(big.num_nodes(), kImplicitMinNodes);
  EXPECT_EQ(make_router(big)->backend(), RouterBackend::Implicit);

  // The forced-backend escape hatch bypasses the policy in both directions:
  // implicit on a tiny shape, table on a big one.
  EXPECT_EQ(make_router(small, forced(RouterOptions::Backend::Implicit))->backend(),
            RouterBackend::Implicit);
  EXPECT_EQ(make_router(big, forced(RouterOptions::Backend::Table))->backend(),
            RouterBackend::Table);

  // Below the threshold the table serves unshaped graphs too.
  const Graph ft = ft_debruijn_base2(4, 2);
  EXPECT_EQ(make_router(ft)->backend(), RouterBackend::Table);

  // A degraded machine is no longer shaped, but small: the table again.
  const Graph target = debruijn_base2(6);
  const Machine degraded = Machine::direct_with_faults(target, FaultSet(64, {5, 22, 41}));
  const Graph live = degraded.live_logical_graph(target);
  ASSERT_FALSE(debruijn_shape_of(live).has_value());
  EXPECT_EQ(make_router(live)->backend(), RouterBackend::Table);

  // At the threshold a degraded machine, inside its shape but no longer
  // one, gets the compressed router.
  const Graph degraded_big = degraded_graph(shuffle_exchange_graph(12), {7, 1000});
  EXPECT_EQ(make_router(degraded_big)->backend(), RouterBackend::Compressed);
}

TEST(MakeRouter, UnshapedGraphAtThresholdGetsTheTable) {
  // A ring of kImplicitMinNodes nodes is inside no B_{m,h} or SE_h, so Auto
  // has neither the algebra nor a reference shape to compress against.
  const auto n = static_cast<NodeId>(kImplicitMinNodes);
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) edges.push_back({v, static_cast<NodeId>((v + 1) % n)});
  const Graph ring = make_graph(n, edges);
  EXPECT_EQ(make_router(ring)->backend(), RouterBackend::Table);
}

TEST(MakeRouter, FtGraphIsNotMistakenForItsTarget) {
  // B^k_{m,h} has m^h + k nodes and extra offset edges: neither shape
  // detector may claim it.
  const Graph ft = ft_debruijn_base2(4, 2);
  EXPECT_FALSE(debruijn_shape_of(ft).has_value());
  EXPECT_FALSE(shuffle_exchange_shape_of(ft).has_value());
  const auto router = make_router(ft);
  EXPECT_NE(router->backend(), RouterBackend::Implicit);
}

TEST(ImplicitRouter, SpotCheckAgainstBfsAtLargerN) {
  // B(2,12): 4096 nodes — too big for the all-pairs grid, sampled here.
  const DeBruijnParams params{.base = 2, .digits = 12};
  const Graph g = debruijn_graph(params);
  const ImplicitRouter router = ImplicitRouter::for_debruijn(params);
  std::mt19937_64 rng(12);
  for (int i = 0; i < 40; ++i) {
    const NodeId src = static_cast<NodeId>(rng() % g.num_nodes());
    const auto oracle = bfs_distances(g, src);
    for (int j = 0; j < 50; ++j) {
      const NodeId dst = static_cast<NodeId>(rng() % g.num_nodes());
      ASSERT_EQ(router.distance(dst, src), oracle[dst]) << +src << "->" << +dst;
    }
  }
  EXPECT_EQ(router.memory_bytes(), 0u);
}

TEST(CompressedRouter, HandlesDisconnectedGraphs) {
  // Faults 2, 3, 4 split the survivors of B_{2,3} into {0, 1} and {5, 6, 7}.
  const Graph g = degraded_graph(debruijn_base2(3), {2, 3, 4});
  const CompressedRouter compressed(g);
  const TableRouter table(g);
  expect_equivalent(g, {&table, &compressed}, "disconnected");
  EXPECT_TRUE(compressed.reachable(1, 0));
  EXPECT_FALSE(compressed.reachable(5, 0));
  EXPECT_EQ(compressed.distance(5, 0), static_cast<std::uint32_t>(-1));
  EXPECT_TRUE(compressed.path(0, 5).empty());
  EXPECT_EQ(compressed.path(5, 7), (std::vector<NodeId>{5, 6, 7}));
}

TEST(CompressedRouter, RejectsGraphsOutsideEveryReferenceShape) {
  // Six nodes are no m^h and no power of two: no reference shape exists.
  const Graph ring = make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}});
  EXPECT_THROW(CompressedRouter{ring}, std::invalid_argument);
  EXPECT_THROW(make_router(ring, forced(RouterOptions::Backend::Compressed)),
               std::invalid_argument);
}

TEST(RouterPath, SelfPathIsTrivialAcrossBackends) {
  const Graph g = debruijn_base2(3);
  const TableRouter table(g);
  const CompressedRouter compressed(g);
  const auto implicit = make_router(g, forced(RouterOptions::Backend::Implicit));
  for (const Router* r : std::vector<const Router*>{&table, &compressed, implicit.get()}) {
    const auto path = r->path(5, 5);
    ASSERT_EQ(path.size(), 1u) << router_backend_name(r->backend());
    EXPECT_EQ(path[0], 5u);
    EXPECT_EQ(r->next_hop(5, 5), 5u);
    EXPECT_EQ(r->distance(5, 5), 0u);
  }
}

TEST(RouteMany, SpanSizeMismatchThrows) {
  const Graph g = debruijn_base2(3);
  const auto router = make_router(g, forced(RouterOptions::Backend::Implicit));
  std::vector<NodeId> dests{1, 2}, nodes{3}, hops(2);
  std::vector<std::uint32_t> dists(2);
  EXPECT_THROW(router->route_many(dests, nodes, hops), std::invalid_argument);
  EXPECT_THROW(router->distance_many(dests, nodes, dists), std::invalid_argument);
}

TEST(RouteMany, HintedOverloadMatchesScalarAcrossWalks) {
  // The caller-carried RouteHint overload must produce exactly the canonical
  // hops whether a hint chains across the walk, is stale (left over from a
  // different destination), or is blank — hints are an accelerator, never an
  // oracle the result depends on.
  const Graph gb = debruijn_graph({.base = 2, .digits = 10});
  const Graph gs = shuffle_exchange_graph(10);
  for (const Graph* g : {&gb, &gs}) {
    const auto router = make_router(*g, forced(RouterOptions::Backend::Implicit));
    ASSERT_EQ(router->backend(), RouterBackend::Implicit);
    std::mt19937_64 rng(99);
    const auto n = static_cast<NodeId>(router->num_nodes());
    const std::size_t walks = 256;
    std::vector<NodeId> dests(walks), cur(walks), hops(walks);
    std::vector<RouteHint> hints(walks);  // value-initialized: blank first cycle
    for (std::size_t i = 0; i < walks; ++i) {
      dests[i] = static_cast<NodeId>(rng() % n);
      cur[i] = static_cast<NodeId>(rng() % n);
    }
    for (int cycle = 0; cycle < 20; ++cycle) {
      router->route_many(dests, cur, hops, hints);
      for (std::size_t i = 0; i < walks; ++i) {
        ASSERT_EQ(hops[i], router->next_hop(dests[i], cur[i])) << "cycle=" << cycle;
        cur[i] = hops[i] == kInvalidNode ? dests[i] : hops[i];
        if (cur[i] == dests[i]) {
          // Re-aim the finished walk but deliberately keep the old hint —
          // it is now stale and must be ignored, not trusted.
          dests[i] = static_cast<NodeId>(rng() % n);
        }
      }
    }
  }
}

TEST(RouteMany, ImplicitPathMatchesScalarWalkAtScale) {
  // The witness-chained path() override against the generic scalar walk,
  // where a full table is impossible (N = 2^14).
  const Graph g = debruijn_base2(14);
  const auto router = make_router(g);
  ASSERT_EQ(router->backend(), RouterBackend::Implicit);
  std::mt19937_64 rng(7);
  const auto n = static_cast<NodeId>(router->num_nodes());
  for (int trial = 0; trial < 200; ++trial) {
    const auto src = static_cast<NodeId>(rng() % n);
    const auto dst = static_cast<NodeId>(rng() % n);
    const std::vector<NodeId> fast = router->path(src, dst);
    std::vector<NodeId> slow{src};
    for (NodeId cur = src; cur != dst;) {
      cur = router->next_hop(dst, cur);
      slow.push_back(cur);
    }
    ASSERT_EQ(fast, slow) << src << "->" << dst;
  }
}

/// Drives a random fault/repair chain through one incrementally-maintained
/// CompressedRouter and, after EVERY event, checks it is indistinguishable
/// from a from-scratch build over the same degraded graph: identical
/// canonical state (exception count + state hash) and hop-for-hop identical
/// answers against the BFS oracle.
void run_incremental_chain(const Graph& target, unsigned max_faults, int events,
                           std::uint64_t seed, const std::string& context) {
  CompressedRouter inc(target);
  ASSERT_EQ(inc.num_exceptions(), 0u) << context;
  std::mt19937_64 rng(seed);
  std::vector<NodeId> faults;
  const auto n = static_cast<NodeId>(target.num_nodes());
  for (int e = 0; e < events; ++e) {
    const bool repair = !faults.empty() && (faults.size() >= max_faults || rng() % 3 == 0);
    if (repair) {
      const std::size_t idx = rng() % faults.size();
      const NodeId v = faults[idx];
      faults.erase(faults.begin() + static_cast<std::ptrdiff_t>(idx));
      inc.retract_fault(v);
    } else {
      NodeId v = static_cast<NodeId>(rng() % n);
      while (std::find(faults.begin(), faults.end(), v) != faults.end()) {
        v = static_cast<NodeId>(rng() % n);
      }
      faults.push_back(v);
      inc.apply_fault(v);
    }
    std::vector<NodeId> sorted_faults = faults;
    std::sort(sorted_faults.begin(), sorted_faults.end());
    ASSERT_EQ(inc.tracked_faults(), sorted_faults) << context << " event " << e;
    const Graph g = degraded_graph(target, faults);
    const CompressedRouter scratch(g);
    ASSERT_EQ(inc.num_exceptions(), scratch.num_exceptions()) << context << " event " << e;
    ASSERT_EQ(inc.stats().state_hash, scratch.stats().state_hash) << context << " event " << e;
    expect_equivalent(g, {&inc, &scratch}, context + " event " + std::to_string(e));
  }
}

TEST(CompressedIncremental, DeBruijnChainsMatchScratchBuilds) {
  run_incremental_chain(debruijn_base2(4), 3, 30, 11, "B(2,4)");
  run_incremental_chain(debruijn_base2(5), 4, 30, 12, "B(2,5)");
  run_incremental_chain(debruijn_graph({.base = 3, .digits = 3}), 3, 25, 13, "B(3,3)");
}

TEST(CompressedIncremental, ShuffleExchangeChainsMatchScratchBuilds) {
  run_incremental_chain(shuffle_exchange_graph(4), 3, 25, 21, "SE_4");
  run_incremental_chain(shuffle_exchange_graph(5), 4, 30, 22, "SE_5");
}

TEST(CompressedIncremental, ExceptionGrowthStaysNearFTimesH) {
  // The shape-delta representation's selling point: f faults cost about f*h
  // exception entries per node, not a dense N^2 rebuild. Assert the bound the
  // serving layer and benches rely on (generous constant, exact canonical
  // form checked by the chain tests above).
  const unsigned h = 8;
  const Graph target = debruijn_base2(h);
  const double n = static_cast<double>(target.num_nodes());
  CompressedRouter inc(target);
  std::size_t previous = 0;
  for (unsigned f = 1; f <= 4; ++f) {
    inc.apply_fault(static_cast<NodeId>(f * 37 % target.num_nodes()));
    const auto s = inc.stats();
    EXPECT_EQ(s.tracked_faults, f);
    EXPECT_GT(s.exception_entries, previous);
    EXPECT_LE(static_cast<double>(s.exception_entries), 8.0 * f * h * n)
        << "f=" << f << " exceptions=" << s.exception_entries;
    previous = s.exception_entries;
  }
  EXPECT_STREQ(inc.stats().reference, "debruijn");
  EXPECT_EQ(inc.stats().reference_digits, h);
}

TEST(CompressedIncremental, ArgumentValidation) {
  CompressedRouter r(debruijn_base2(4));
  EXPECT_THROW(r.apply_fault(16), std::invalid_argument);
  EXPECT_THROW(r.retract_fault(3), std::invalid_argument);  // not retired
  r.apply_fault(3);
  EXPECT_THROW(r.apply_fault(3), std::invalid_argument);  // already retired
  r.retract_fault(3);
  EXPECT_EQ(r.stats().state_hash, CompressedRouter(debruijn_base2(4)).stats().state_hash);
}

TEST(CompressedIncremental, ScratchBuildFromDegradedGraphAdoptsIsolatedNodes) {
  // Building from an already-degraded graph adopts isolated nodes as retired,
  // so the repair lifecycle works without the healthy-build provenance.
  const Graph target = debruijn_base2(4);
  CompressedRouter scratch(degraded_graph(target, {5}));
  ASSERT_EQ(scratch.tracked_faults(), (std::vector<NodeId>{5}));
  scratch.retract_fault(5);
  EXPECT_EQ(scratch.stats().state_hash, CompressedRouter(target).stats().state_hash);
  expect_equivalent(target, {&scratch}, "repaired from degraded build");
}

}  // namespace
}  // namespace ftdb::sim
