// Router equivalence: the three backends (implicit algebra, run-length
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

/// Auto selection with the size-aware table preference switched off — the
/// historical shape-implies-implicit behavior, used where a test's subject is
/// the shape detection itself (the grids here are all far below the 2^12
/// policy threshold).
RouterOptions auto_implicit() {
  RouterOptions options;
  options.implicit_min_nodes = 0;
  return options;
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
  // Batched queries: route_many / distance_many over every pair must be
  // hop-for-hop identical to the scalar loops on every backend (the implicit
  // backend's override runs witness-seeded scans through its memo cache —
  // run the batch twice so warm cache hits are exercised too).
  std::vector<NodeId> dests, nodes, hops(n * n);
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
    for (int round = 0; round < 2; ++round) {
      r->route_many(dests, nodes, hops);
      r->distance_many(dests, nodes, dists);
      for (std::size_t i = 0; i < dests.size(); ++i) {
        ASSERT_EQ(hops[i], r->next_hop(dests[i], nodes[i]))
            << context << " backend=" << router_backend_name(r->backend()) << " round=" << round
            << " " << +nodes[i] << "->" << +dests[i];
        ASSERT_EQ(dists[i], r->distance(dests[i], nodes[i]))
            << context << " backend=" << router_backend_name(r->backend()) << " round=" << round;
      }
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

  // Below the size-aware threshold Auto prefers the table; with the policy
  // switched off the shape detection must still land on the implicit algebra.
  ASSERT_EQ(make_router(g)->backend(), RouterBackend::Table)
      << "small healthy B_{m,h} must auto-select the table";
  const auto auto_router = make_router(g, auto_implicit());
  ASSERT_EQ(auto_router->backend(), RouterBackend::Implicit)
      << "healthy B_{m,h} must be recognized as implicit-routable";
  EXPECT_EQ(auto_router->memory_bytes(), 0u);

  const TableRouter table(g);
  const CompressedRouter compressed(g);
  expect_equivalent(g, {&table, auto_router.get(), &compressed},
                    "B(m=" + std::to_string(m) + ",h=" + std::to_string(h) + ")");

  // On a healthy shape the compressed backend rides the algebraic reference
  // with zero exceptions — O(N + E) memory, far under the N^2 slab.
  EXPECT_TRUE(compressed.uses_reference_shape());
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
    const auto router = machine_logical_router(machine, target, auto_implicit());
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

  const auto router = machine_logical_router(machine, target, auto_implicit());
  ASSERT_NE(router->backend(), RouterBackend::Implicit)
      << "dead nodes break the algebraic shape; auto must fall back";
  EXPECT_EQ(router->backend(), RouterBackend::Compressed)
      << "constant-degree fallback is the compressed table";
  // The degraded machine is still a subgraph of its shape, so the compressed
  // backend shares the algebra and stores only the fault detours.
  const auto* compressed = dynamic_cast<const CompressedRouter*>(router.get());
  ASSERT_NE(compressed, nullptr);
  EXPECT_TRUE(compressed->uses_reference_shape());
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
  const auto auto_router = make_router(g, auto_implicit());
  ASSERT_EQ(auto_router->backend(), RouterBackend::Implicit);
  const TableRouter table(g);
  const CompressedRouter compressed(g);
  expect_equivalent(g, {&table, auto_router.get(), &compressed},
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
  const auto router = machine_logical_router(machine, target, auto_implicit());
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
  // A star exceeds the compressed-degree bound: auto must pick the table.
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
  EXPECT_EQ(make_router(big)->backend(), RouterBackend::Implicit);

  // The threshold is a knob...
  RouterOptions raised;
  raised.implicit_min_nodes = std::size_t{1} << 13;
  EXPECT_EQ(make_router(big, raised)->backend(), RouterBackend::Table);
  RouterOptions off;
  off.implicit_min_nodes = 0;
  EXPECT_EQ(make_router(small, off)->backend(), RouterBackend::Implicit);

  // ...and the forced-backend escape hatch bypasses the policy in both
  // directions: implicit on a tiny shape, table on a big one.
  EXPECT_EQ(make_router(small, forced(RouterOptions::Backend::Implicit))->backend(),
            RouterBackend::Implicit);
  EXPECT_EQ(make_router(big, forced(RouterOptions::Backend::Table))->backend(),
            RouterBackend::Table);

  // Below the threshold the table serves unshaped graphs too; with the size
  // rule off they keep the degree-based compressed/table choice.
  const Graph ft = ft_debruijn_base2(4, 2);
  EXPECT_EQ(make_router(ft)->backend(), RouterBackend::Table);
  EXPECT_EQ(make_router(ft, off)->backend(), RouterBackend::Compressed);

  // A degraded machine is no longer shaped, but small: the table again.
  const Graph target = debruijn_base2(6);
  const Machine degraded = Machine::direct_with_faults(target, FaultSet(64, {5, 22, 41}));
  const Graph live = degraded.live_logical_graph(target);
  ASSERT_FALSE(debruijn_shape_of(live).has_value());
  EXPECT_EQ(make_router(live)->backend(), RouterBackend::Table);
  EXPECT_EQ(make_router(live, off)->backend(), RouterBackend::Compressed);
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
  const Graph g = make_graph(5, {{0, 1}, {2, 3}});
  const CompressedRouter compressed(g);
  const TableRouter table(g);
  expect_equivalent(g, {&table, &compressed}, "disconnected");
  EXPECT_FALSE(compressed.reachable(2, 0));
  EXPECT_EQ(compressed.distance(2, 0), static_cast<std::uint32_t>(-1));
  EXPECT_TRUE(compressed.path(0, 2).empty());
}

TEST(RouterPath, SelfPathIsTrivialAcrossBackends) {
  const Graph g = debruijn_base2(3);
  const TableRouter table(g);
  const CompressedRouter compressed(g);
  const auto implicit = make_router(g);
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
  const auto router = make_router(g, auto_implicit());
  std::vector<NodeId> dests{1, 2}, nodes{3}, hops(2);
  std::vector<std::uint32_t> dists(2);
  EXPECT_THROW(router->route_many(dests, nodes, hops), std::invalid_argument);
  EXPECT_THROW(router->distance_many(dests, nodes, dists), std::invalid_argument);
}

TEST(RouteMany, MemoCacheSurvivesInterleavedRoutersAndStaysExact) {
  // Two implicit routers of *different* shapes share the thread-local memo
  // slab; interleaved batches must never cross-contaminate (never-reused
  // router ids stamp every entry). Random walk batches simulate the packet
  // engine's access pattern: the same (dest, node) pairs recur cycle after
  // cycle, one hop closer each time — the forward-seeded partial entries'
  // home turf.
  const DeBruijnParams db{.base = 2, .digits = 8};
  const Graph gb = debruijn_graph(db);
  const Graph gs = shuffle_exchange_graph(8);
  const auto rb = make_router(gb, auto_implicit());
  const auto rs = make_router(gs, auto_implicit());
  ASSERT_EQ(rb->backend(), RouterBackend::Implicit);
  ASSERT_EQ(rs->backend(), RouterBackend::Implicit);
  EXPECT_EQ(rb->memory_bytes(), 0u);
  EXPECT_GT(ImplicitRouter::route_cache_bytes(), 0u);

  std::mt19937_64 rng(2024);
  const std::size_t walks = 300;
  for (const Router* r : {rb.get(), rs.get()}) {
    const auto n = static_cast<NodeId>(r->num_nodes());
    std::vector<NodeId> dests(walks), cur(walks), hops(walks);
    for (std::size_t i = 0; i < walks; ++i) {
      dests[i] = static_cast<NodeId>(rng() % n);
      cur[i] = static_cast<NodeId>(rng() % n);
    }
    for (int cycle = 0; cycle < 24; ++cycle) {
      // Alternate routers mid-walk to stress id-stamped slot eviction.
      const Router* other = r == rb.get() ? rs.get() : rb.get();
      std::vector<NodeId> od{1, 2, 3}, on{4, 5, 6}, oh(3);
      other->route_many(od, on, oh);
      r->route_many(dests, cur, hops);
      for (std::size_t i = 0; i < walks; ++i) {
        ASSERT_EQ(hops[i], r->next_hop(dests[i], cur[i]))
            << router_backend_name(r->backend()) << " cycle=" << cycle << " walk=" << i;
        cur[i] = hops[i] == kInvalidNode ? dests[i] : hops[i];
      }
    }
  }
}

TEST(RouteMany, HintedOverloadMatchesScalarAcrossWalks) {
  // The caller-carried RouteHint overload must produce exactly the canonical
  // hops whether a hint chains across the walk, is stale (left over from a
  // different destination), or is blank — hints are an accelerator, never an
  // oracle the result depends on.
  const Graph gb = debruijn_graph({.base = 2, .digits = 10});
  const Graph gs = shuffle_exchange_graph(10);
  for (const Graph* g : {&gb, &gs}) {
    const auto router = make_router(*g, auto_implicit());
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

/// Drives a random fault/repair chain through one incrementally-maintained
/// CompressedRouter and, after EVERY event, checks it is indistinguishable
/// from a from-scratch build over the same degraded graph: identical
/// canonical state (exception count + state hash) and hop-for-hop identical
/// answers against the BFS oracle.
void run_incremental_chain(const Graph& target, unsigned max_faults, int events,
                           std::uint64_t seed, const std::string& context) {
  CompressedRouter inc(target);
  ASSERT_TRUE(inc.uses_reference_shape()) << context;
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

TEST(CompressedIncremental, RunLengthModeRefusesIncrementalOps) {
  // A graph with no containing reference shape falls back to run-length
  // encoding, which has nothing to patch incrementally.
  const Graph ring = make_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}});
  CompressedRouter r(ring);
  ASSERT_FALSE(r.uses_reference_shape());
  EXPECT_STREQ(r.stats().reference, "none");
  EXPECT_GT(r.stats().run_entries, 0u);
  EXPECT_THROW(r.apply_fault(0), std::logic_error);
  EXPECT_THROW(r.retract_fault(0), std::logic_error);
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

/// Parallel construction must be invisible: destination-sharded builds are
/// documented to produce storage *bit-identical* to a serial build, which the
/// campaign relies on for byte-identical reports regardless of worker count.
TEST(ParallelBuild, TableRouterIsBitIdenticalAcrossThreadCounts) {
  // A degraded graph: unreachable rows and detours exercise the sentinel
  // paths in every shard, not just the happy BFS.
  const Graph g = degraded_graph(debruijn_base2(5), {7, 19});
  const TableRouter serial(g, 1);
  for (const unsigned threads : {3u, 5u, 0u}) {
    const TableRouter sharded(g, threads);
    for (NodeId dest = 0; dest < g.num_nodes(); ++dest) {
      for (NodeId node = 0; node < g.num_nodes(); ++node) {
        ASSERT_EQ(sharded.next_hop(dest, node), serial.next_hop(dest, node))
            << "threads=" << threads << " dest=" << +dest << " node=" << +node;
        ASSERT_EQ(sharded.distance(dest, node), serial.distance(dest, node))
            << "threads=" << threads << " dest=" << +dest << " node=" << +node;
      }
    }
  }
}

TEST(ParallelBuild, ShapeDeltaCompressedBuildsAreBitIdentical) {
  // Shape-delta path: degraded B_{2,5} and SE_4 carry real exception tables,
  // so chunk concatenation order is observable through the state hash.
  for (const Graph& g : {degraded_graph(debruijn_base2(5), {7, 19}),
                         degraded_graph(shuffle_exchange_graph(4), {3, 10})}) {
    const CompressedRouter serial(g, 1);
    ASSERT_TRUE(serial.uses_reference_shape());
    ASSERT_GT(serial.num_exceptions(), 0u);
    for (const unsigned threads : {2u, 3u, 0u}) {
      const CompressedRouter sharded(g, threads);
      ASSERT_EQ(sharded.num_exceptions(), serial.num_exceptions()) << "threads=" << threads;
      ASSERT_EQ(sharded.stats().state_hash, serial.stats().state_hash) << "threads=" << threads;
      ASSERT_EQ(sharded.memory_bytes(), serial.memory_bytes()) << "threads=" << threads;
    }
  }
}

TEST(ParallelBuild, RunLengthCompressedStitchesChunkBoundaries) {
  // Run-length fallback: a long even cycle has runs that span any chunk
  // boundary, so the boundary-stitching (dropping runs that merely continue
  // the previous chunk's final hop) is what this pins down.
  std::vector<Edge> edges;
  const NodeId n = 24;
  for (NodeId v = 0; v < n; ++v) edges.push_back({v, static_cast<NodeId>((v + 1) % n)});
  const Graph ring = make_graph(n, edges);
  const CompressedRouter serial(ring, 1);
  ASSERT_FALSE(serial.uses_reference_shape());
  for (const unsigned threads : {2u, 3u, 7u, 0u}) {
    const CompressedRouter sharded(ring, threads);
    ASSERT_EQ(sharded.num_runs(), serial.num_runs()) << "threads=" << threads;
    ASSERT_EQ(sharded.stats().state_hash, serial.stats().state_hash) << "threads=" << threads;
    expect_equivalent(ring, {&sharded}, "run-length threads=" + std::to_string(threads));
  }
}

TEST(ParallelBuild, MakeRouterPassesBuildThreadsThrough) {
  const Graph g = degraded_graph(debruijn_base2(5), {7});
  RouterOptions opts = forced(RouterOptions::Backend::Compressed);
  opts.build_threads = 3;
  const auto sharded = make_router(g, opts);
  const auto* compressed = dynamic_cast<const CompressedRouter*>(sharded.get());
  ASSERT_NE(compressed, nullptr);
  EXPECT_EQ(compressed->stats().state_hash, CompressedRouter(g, 1).stats().state_hash);

  opts.backend = RouterOptions::Backend::Table;
  const auto table = make_router(g, opts);
  EXPECT_EQ(table->backend(), RouterBackend::Table);
  expect_equivalent(g, {table.get(), compressed}, "make_router build_threads=3");
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
