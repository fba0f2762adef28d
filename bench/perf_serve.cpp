// Serving-layer benchmarks: the cost model behind the always-on service.
//
//  * incremental_vs_rebuild — the headline claim: patching the shape-delta
//    CompressedRouter for one fault (apply_fault + retract_fault) versus the
//    2-BFS-per-destination from-scratch rebuild, on B_{2,12} (N = 4096). The
//    `speedup` metric is asserted >= 10x in CI.
//  * fault_event_latency — end-to-end mutation latency through the service
//    (journal append + reconfigure + router patch + epoch publish).
//  * query_throughput — FT-surface and bare-surface reads through a pinned
//    Reader while faults are outstanding.
//  * bare_route — whole bare-surface paths (Reader::bare_route) on B_{2,10}
//    with 8 faults outstanding, the query the serving benchmark times.
//  * journal_replay — cold-start recovery of a journaled event stream.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/bench_registry.hpp"
#include "serve/service.hpp"
#include "sim/router.hpp"
#include "topology/debruijn.hpp"

namespace {

using ftdb::FaultEvent;
using ftdb::FaultKind;
using ftdb::Graph;
using ftdb::GraphBuilder;
using ftdb::NodeId;
using ftdb::analysis::BenchContext;

constexpr unsigned kH = 12;  // N = 4096: the scale where rebuilds visibly hurt

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

Graph one_fault_degraded(const Graph& target, NodeId v) {
  GraphBuilder b(target.num_nodes());
  for (NodeId u = 0; u < target.num_nodes(); ++u) {
    if (u == v) continue;
    for (const NodeId w : target.neighbors(u)) {
      if (u < w && w != v) b.add_edge(u, w);
    }
  }
  return b.build();
}

FTDB_BENCH(serve_incremental_vs_rebuild, "perf_serve/incremental_vs_rebuild_b2h12") {
  const Graph target = ftdb::debruijn_base2(kH);
  const auto n = static_cast<NodeId>(target.num_nodes());

  constexpr int kRebuilds = 3;
  auto start = std::chrono::steady_clock::now();
  std::size_t exceptions = 0;
  for (int i = 0; i < kRebuilds; ++i) {
    const ftdb::sim::CompressedRouter scratch(
        one_fault_degraded(target, static_cast<NodeId>((i * 977 + 1) % n)));
    exceptions += scratch.num_exceptions();
  }
  const double rebuild_s = seconds_since(start) / kRebuilds;

  constexpr int kPatches = 24;
  ftdb::sim::CompressedRouter incremental(target);
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPatches; ++i) {
    const auto v = static_cast<NodeId>((i * 977 + 1) % n);
    incremental.apply_fault(v);
    incremental.retract_fault(v);
  }
  // One patch cycle = apply + retract, i.e. two single-fault transitions.
  const double patch_s = seconds_since(start) / (2 * kPatches);

  ctx.report("nodes", n);
  ctx.report("rebuild_seconds", rebuild_s);
  ctx.report("incremental_seconds", patch_s);
  ctx.report("speedup", rebuild_s / patch_s);
  ctx.report("rebuild_exceptions", static_cast<double>(exceptions) / kRebuilds);
}

FTDB_BENCH(serve_fault_event_latency, "perf_serve/fault_event_latency_b2h12") {
  const std::string journal =
      "/tmp/ftdb_perf_serve_" + std::to_string(static_cast<unsigned>(::getpid())) + ".jrn";
  std::remove(journal.c_str());
  ftdb::serve::ServeConfig config;
  config.digits = kH;
  config.spares = 8;
  config.journal_path = journal;
  config.fsync_journal = false;  // measure compute, not disk sync
  ftdb::serve::ReconfigurationService service(config);

  constexpr int kCycles = 12;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCycles; ++i) {
    const auto v = static_cast<NodeId>((i * 1291 + 7) % service.num_logical_nodes());
    service.fault({FaultKind::kNode, v, 0});
    service.repair(v);
  }
  ctx.report("seconds_per_mutation", seconds_since(start) / (2 * kCycles));
  ctx.report("events", 2 * kCycles);
  std::remove(journal.c_str());
}

FTDB_BENCH(serve_query_throughput, "perf_serve/query_throughput_b2h12") {
  ftdb::serve::ServeConfig config;
  config.digits = kH;
  config.spares = 4;
  ftdb::serve::ReconfigurationService service(config);
  for (NodeId v : {NodeId{17}, NodeId{900}}) service.fault({FaultKind::kNode, v, 0});
  auto reader = service.reader();
  const auto n = static_cast<NodeId>(service.num_logical_nodes());

  constexpr int kQueries = 200000;
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < kQueries; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;  // xorshift: cheap vs the query
    const auto from = static_cast<NodeId>(x % n);
    const auto dest = static_cast<NodeId>((x >> 32) % n);
    sink += reader.next_hop(dest, from);
    sink += reader.bare_next_hop(dest, from);
  }
  const double elapsed = seconds_since(start);
  ctx.report("queries", 2 * kQueries);
  ctx.report("queries_per_second", 2 * kQueries / elapsed);
  ctx.report("sink", static_cast<double>(sink & 0xFFFF));
}

FTDB_BENCH(serve_bare_route, "perf_serve/bare_route_b2h10") {
  ftdb::serve::ServeConfig config;
  config.digits = 10;
  config.spares = 8;
  ftdb::serve::ReconfigurationService service(config);
  const auto n = static_cast<NodeId>(service.num_logical_nodes());
  for (NodeId i = 0; i < 8; ++i) service.fault({FaultKind::kNode, (i * 353 + 11) % n, 0});
  auto reader = service.reader();

  constexpr int kPaths = 20000;
  std::uint64_t hops = 0;
  std::uint64_t x = 88172645463325252ull;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPaths; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    const auto from = static_cast<NodeId>(x % n);
    const auto dest = static_cast<NodeId>((x >> 32) % n);
    hops += reader.bare_route(from, dest).size();
  }
  const double elapsed = seconds_since(start);
  ctx.report("paths", kPaths);
  ctx.report("ns_per_path", elapsed * 1e9 / kPaths);
  ctx.report("nodes_per_path", static_cast<double>(hops) / kPaths);
}

FTDB_BENCH(serve_journal_replay, "perf_serve/journal_replay_b2h10") {
  const std::string journal =
      "/tmp/ftdb_perf_replay_" + std::to_string(static_cast<unsigned>(::getpid())) + ".jrn";
  std::remove(journal.c_str());
  ftdb::serve::ServeConfig config;
  config.digits = 10;
  config.spares = 6;
  config.journal_path = journal;
  config.fsync_journal = false;
  std::uint64_t hash = 0;
  {
    ftdb::serve::ReconfigurationService service(config);
    for (int i = 0; i < 40; ++i) {
      const auto v = static_cast<NodeId>((i * 353 + 11) % service.num_logical_nodes());
      service.fault({FaultKind::kNode, v, 0});
      if (i % 2 == 1) service.repair(v);
    }
    hash = service.state_hash();
  }
  const auto start = std::chrono::steady_clock::now();
  ftdb::serve::ReconfigurationService recovered(config);
  const double elapsed = seconds_since(start);
  ctx.report("replay_seconds", elapsed);
  ctx.report("replayed_events", static_cast<double>(recovered.replayed_events()));
  ctx.report("hash_match", recovered.state_hash() == hash ? 1 : 0);
  std::remove(journal.c_str());
}

}  // namespace
