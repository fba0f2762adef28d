// PERF11: the subgraph-monomorphism search behind
// ft_shuffle_exchange_via_debruijn (the Feldmann–Unger containment
// SE_h ⊆ B_{2,h}). The plain VF2 search realizes it at h = 6 in 654,086
// steps without any memo. Steps are deterministic; wall time is the
// regression signal. These entries continue the former
// se_in_debruijn_h{5,6}_reference series (the same algorithm).
#include "analysis/bench_registry.hpp"
#include "graph/embedding.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace {

using ftdb::analysis::BenchContext;

void run_search(BenchContext& ctx, unsigned h) {
  const ftdb::Graph se = ftdb::shuffle_exchange_graph(h);
  const ftdb::Graph db = ftdb::debruijn_base2(h);
  ftdb::EmbeddingSearchStats stats;
  const auto phi = ftdb::find_subgraph_embedding(se, db, {}, &stats);
  ctx.report("found", phi.has_value() ? 1.0 : 0.0);
  ctx.report("steps", static_cast<double>(stats.steps));
  ctx.report("valid", phi && ftdb::is_valid_embedding(se, db, *phi) ? 1.0 : 0.0);
}

FTDB_BENCH(embedding_h5, "perf_embedding/se_in_debruijn_h5") { run_search(ctx, 5); }

FTDB_BENCH(embedding_h6, "perf_embedding/se_in_debruijn_h6") { run_search(ctx, 6); }

}  // namespace
