// perf_routing: the Router backends head-to-head — build time, next-hop
// latency, and the memory story that motivates the whole abstraction.
//
// The build_* entries construct each backend on B_{2,10} (1024 nodes; the
// table's two slabs are ~4 MB there, the compressed router's graph and empty
// exception table ~20 KB, the implicit router 0 bytes). The next_hop_*
// entries walk full canonical routes for a fixed random pair sample, so
// wall_seconds / hops is the per-hop latency of the backend.
//
// implicit_b2_h18 is the scale demonstration: a healthy de Bruijn machine at
// N = 2^18 routes through the auto-selected implicit backend with zero
// router-owned memory, where the table backend's slab would be
// N^2 * 4 bytes ≈ 275 GB (reported as table_equivalent_bytes). No N^2
// allocation happens anywhere in the entry. route_many_implicit_b2_h18 is
// the same machine on the batched hinted path, and engine_implicit_b2_h18
// the packet engine driving that path, queues included.
#include <chrono>
#include <span>
#include <vector>

#include "analysis/bench_registry.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"
#include "sim/traffic.hpp"
#include "topology/debruijn.hpp"

namespace {

using ftdb::analysis::BenchContext;
using ftdb::sim::Router;
using ftdb::sim::RouterBackend;
using ftdb::sim::RouterOptions;

constexpr unsigned kSmallH = 10;

RouterOptions forced(RouterOptions::Backend backend) {
  RouterOptions options;
  options.backend = backend;
  return options;
}

void build_bench(BenchContext& ctx, RouterOptions::Backend backend, int iterations) {
  const ftdb::Graph g = ftdb::debruijn_base2(kSmallH);
  std::size_t memory = 0;
  std::size_t selected_implicit = 0;
  for (int i = 0; i < iterations; ++i) {
    const auto router = ftdb::sim::make_router(g, forced(backend));
    memory = router->memory_bytes();
    selected_implicit = router->backend() == RouterBackend::Implicit ? 1 : 0;
  }
  ctx.report("iterations", iterations);
  ctx.report("nodes", static_cast<double>(g.num_nodes()));
  ctx.report("router_memory_bytes", static_cast<double>(memory));
  ctx.report("implicit_selected", static_cast<double>(selected_implicit));
}

FTDB_BENCH(build_table, "perf_routing/build_table_b2_h10") {
  build_bench(ctx, RouterOptions::Backend::Table, 5);
}

FTDB_BENCH(build_compressed, "perf_routing/build_compressed_b2_h10") {
  build_bench(ctx, RouterOptions::Backend::Compressed, 5);
}

FTDB_BENCH(build_implicit, "perf_routing/build_implicit_b2_h10") {
  // Forced implicit: the cost here is the shape detection plus an O(1)
  // object. (Auto would pick the table at this size — see
  // ftdb::sim::kImplicitMinNodes.)
  build_bench(ctx, RouterOptions::Backend::Implicit, 5);
}

/// Routes `pairs` random (src, dst) pairs hop by hop through next_hop() —
/// the forwarding loop's access pattern — and reports per-hop latency.
void next_hop_bench(BenchContext& ctx, const ftdb::Graph& g, const Router& router,
                    std::size_t pairs) {
  const std::size_t n = g.num_nodes();
  std::uint64_t hops = 0;
  std::uint64_t checksum = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto src = static_cast<ftdb::NodeId>(ctx.rng().next_u64() % n);
    const auto dst = static_cast<ftdb::NodeId>(ctx.rng().next_u64() % n);
    ftdb::NodeId cur = src;
    while (cur != dst) {
      cur = router.next_hop(dst, cur);
      ++hops;
      checksum += cur;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  ctx.report("pairs", static_cast<double>(pairs));
  ctx.report("hops", static_cast<double>(hops));
  ctx.report("ns_per_hop", hops == 0 ? 0.0 : ns / static_cast<double>(hops));
  ctx.report("checksum", static_cast<double>(checksum));
  ctx.report("router_memory_bytes", static_cast<double>(router.memory_bytes()));
}

void next_hop_small(BenchContext& ctx, RouterOptions::Backend backend) {
  const ftdb::Graph g = ftdb::debruijn_base2(kSmallH);
  const auto router = ftdb::sim::make_router(g, forced(backend));
  next_hop_bench(ctx, g, *router, 20000);
}

FTDB_BENCH(next_hop_table, "perf_routing/next_hop_table_b2_h10") {
  next_hop_small(ctx, RouterOptions::Backend::Table);
}

FTDB_BENCH(next_hop_compressed, "perf_routing/next_hop_compressed_b2_h10") {
  next_hop_small(ctx, RouterOptions::Backend::Compressed);
}

FTDB_BENCH(next_hop_implicit, "perf_routing/next_hop_implicit_b2_h10") {
  next_hop_small(ctx, RouterOptions::Backend::Implicit);
}

FTDB_BENCH(implicit_h18, "perf_routing/implicit_b2_h18") {
  const ftdb::Graph g = ftdb::debruijn_base2(18);  // N = 262144
  const auto router = ftdb::sim::make_router(g);   // auto: must go implicit
  ctx.report("implicit_selected",
             router->backend() == RouterBackend::Implicit ? 1.0 : 0.0);
  const double n = static_cast<double>(g.num_nodes());
  ctx.report("nodes", n);
  ctx.report("table_equivalent_bytes", n * n * 4.0);
  next_hop_bench(ctx, g, *router, 2000);
}

FTDB_BENCH(route_many_h18, "perf_routing/route_many_implicit_b2_h18") {
  // The batched forwarding hot path at N = 2^18: a cohort of in-flight
  // walks advances one wave per route_many call, each walk carrying its
  // RouteHint across hops exactly like the packet engine's per-cycle waves.
  // This is the path the scalar implicit_b2_h18 entry is the baseline for —
  // identical canonical routes (same checksum discipline), batched latency.
  const ftdb::Graph g = ftdb::debruijn_base2(18);  // N = 262144
  const auto router = ftdb::sim::make_router(g);   // auto: must go implicit
  ctx.report("implicit_selected",
             router->backend() == RouterBackend::Implicit ? 1.0 : 0.0);
  const std::size_t n = g.num_nodes();
  ctx.report("nodes", static_cast<double>(n));

  const std::size_t pairs = 2000;
  std::vector<ftdb::NodeId> dests(pairs), cur(pairs), hops(pairs);
  std::vector<ftdb::sim::RouteHint> hints(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    do {
      cur[i] = static_cast<ftdb::NodeId>(ctx.rng().next_u64() % n);
      dests[i] = static_cast<ftdb::NodeId>(ctx.rng().next_u64() % n);
    } while (cur[i] == dests[i]);
  }

  std::uint64_t hop_count = 0;
  std::uint64_t checksum = 0;
  std::size_t live = pairs;
  const auto start = std::chrono::steady_clock::now();
  while (live > 0) {
    router->route_many(std::span(dests).first(live), std::span(cur).first(live),
                       std::span(hops).first(live), std::span(hints).first(live));
    std::size_t w = 0;
    for (std::size_t i = 0; i < live; ++i) {
      const ftdb::NodeId hop = hops[i];
      ++hop_count;
      checksum += hop;
      if (hop == dests[i]) continue;  // delivered: drop from the cohort
      dests[w] = dests[i];
      cur[w] = hop;
      hints[w] = hints[i];
      ++w;
    }
    live = w;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  ctx.report("pairs", static_cast<double>(pairs));
  ctx.report("hops", static_cast<double>(hop_count));
  ctx.report("ns_per_hop", hop_count == 0 ? 0.0 : ns / static_cast<double>(hop_count));
  ctx.report("checksum", static_cast<double>(checksum));
  ctx.report("router_memory_bytes", static_cast<double>(router->memory_bytes()));
}

FTDB_BENCH(engine_h18, "perf_routing/engine_implicit_b2_h18") {
  // The packet engine on the healthy machine at N = 2^18: every forwarding
  // wave goes through the hinted route_many with one RouteHint per in-flight
  // packet, so ns_per_hop here over route_many_implicit_b2_h18's is what the
  // engine's queueing adds to the bare batched path.
  const ftdb::Graph g = ftdb::debruijn_base2(18);  // N = 262144
  const ftdb::sim::Machine machine = ftdb::sim::Machine::direct(g);
  ftdb::sim::PacketSimulator sim(machine, g);  // auto: must go implicit
  ctx.report("implicit_selected",
             sim.router().backend() == RouterBackend::Implicit ? 1.0 : 0.0);
  const std::vector<ftdb::sim::Packet> packets =
      ftdb::sim::uniform_traffic(g.num_nodes(), 32768, 4096, ctx.rng().next_u64());

  const auto start = std::chrono::steady_clock::now();
  const ftdb::sim::SimStats stats = sim.run(packets);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  ctx.report("packets", static_cast<double>(packets.size()));
  ctx.report("delivered", static_cast<double>(stats.delivered));
  ctx.report("hops", static_cast<double>(stats.total_hops));
  ctx.report("cycles", static_cast<double>(stats.cycles));
  ctx.report("ns_per_hop",
             stats.total_hops == 0 ? 0.0 : ns / static_cast<double>(stats.total_hops));
}

}  // namespace
