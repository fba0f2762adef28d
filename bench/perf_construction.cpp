// PERF1: timings for building the fault-tolerant graphs and running the
// reconfiguration algorithm. Construction is O((N+k) * k) edges;
// reconfiguration is O(N + k) — both trivially fast, which is itself a claim
// worth pinning (reconfiguration is a table scan, not a search). Each
// benchmark runs a fixed iteration count and reports it, so per-op time is
// wall_seconds / iterations.

#include "analysis/bench_registry.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/reconfigure.hpp"
#include "ft/tolerance.hpp"
#include "topology/debruijn.hpp"

namespace {

using ftdb::analysis::BenchContext;

void build_target_debruijn(BenchContext& ctx, unsigned h, int iterations) {
  std::size_t edges = 0;
  for (int i = 0; i < iterations; ++i) {
    edges = ftdb::debruijn_base2(h).num_edges();
  }
  ctx.report("iterations", iterations);
  ctx.report("h", h);
  ctx.report("edges", static_cast<double>(edges));
}

FTDB_BENCH(build_target_h10, "perf_construction/build_target_b2_h10") {
  build_target_debruijn(ctx, 10, 200);
}

FTDB_BENCH(build_target_h14, "perf_construction/build_target_b2_h14") {
  build_target_debruijn(ctx, 14, 20);
}

void build_ft_debruijn(BenchContext& ctx, unsigned h, unsigned k, int iterations) {
  std::size_t edges = 0;
  for (int i = 0; i < iterations; ++i) {
    edges = ftdb::ft_debruijn_base2(h, k).num_edges();
  }
  ctx.report("iterations", iterations);
  ctx.report("h", h);
  ctx.report("k", k);
  ctx.report("edges", static_cast<double>(edges));
}

FTDB_BENCH(build_ft_h8_k8, "perf_construction/build_ft_b2_h8_k8") {
  build_ft_debruijn(ctx, 8, 8, 100);
}

FTDB_BENCH(build_ft_h10_k8, "perf_construction/build_ft_b2_h10_k8") {
  build_ft_debruijn(ctx, 10, 8, 50);
}

FTDB_BENCH(build_ft_h12_k4, "perf_construction/build_ft_b2_h12_k4") {
  build_ft_debruijn(ctx, 12, 4, 10);
}

FTDB_BENCH(build_ft_basem, "perf_construction/build_ft_basem_m4_h5_k2") {
  constexpr int kIterations = 50;
  std::size_t edges = 0;
  for (int i = 0; i < kIterations; ++i) {
    edges = ftdb::ft_debruijn_graph({.base = 4, .digits = 5, .spares = 2}).num_edges();
  }
  ctx.report("iterations", kIterations);
  ctx.report("edges", static_cast<double>(edges));
}

void reconfiguration(BenchContext& ctx, unsigned h, unsigned k, int iterations) {
  const std::size_t universe = (std::size_t{1} << h) + k;
  const ftdb::FaultSet faults = ftdb::FaultSet::random(universe, k, ctx.rng());
  std::size_t mapped = 0;
  for (int i = 0; i < iterations; ++i) {
    mapped = ftdb::monotone_embedding(faults).size();
  }
  ctx.report("iterations", iterations);
  ctx.report("h", h);
  ctx.report("k", k);
  ctx.report("mapped_nodes", static_cast<double>(mapped));
}

FTDB_BENCH(reconfig_h14_k4, "perf_construction/reconfiguration_h14_k4") {
  reconfiguration(ctx, 14, 4, 500);
}

FTDB_BENCH(reconfig_h20_k16, "perf_construction/reconfiguration_h20_k16") {
  reconfiguration(ctx, 20, 16, 10);
}

FTDB_BENCH(verify_one_fault_set, "perf_construction/verify_one_fault_set_h10_k4") {
  constexpr unsigned h = 10;
  constexpr unsigned k = 4;
  constexpr int kIterations = 50;
  const ftdb::Graph target = ftdb::debruijn_base2(h);
  const ftdb::Graph ft = ftdb::ft_debruijn_base2(h, k);
  const ftdb::FaultSet faults = ftdb::FaultSet::random(ft.num_nodes(), k, ctx.rng());
  bool ok = true;
  for (int i = 0; i < kIterations; ++i) {
    // No short-circuit: every iteration must run the check or the wall-time
    // baseline is corrupted by a single failure.
    ok = ftdb::monotone_embedding_survives(target, ft, faults) && ok;
  }
  ctx.report("iterations", kIterations);
  ctx.report("survives", ok ? 1.0 : 0.0);
}

}  // namespace
