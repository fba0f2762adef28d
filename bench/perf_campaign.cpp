// PERF6: throughput of the fault-injection campaign engine — trials/second
// for a representative grid cell per fault model, plus one mixed-grid run.
// The campaign runner is the production workload multiplier (every scenario
// re-runs construction, fault drawing, reconfiguration checks and survivor
// metrics thousands of times), so its per-trial cost is the number to watch.
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "analysis/bench_registry.hpp"
#include "campaign/fault_models.hpp"
#include "campaign/report.hpp"
#include "campaign/rng.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/tolerance.hpp"
#include "topology/debruijn.hpp"

namespace {

using ftdb::analysis::BenchContext;
using namespace ftdb::campaign;

ScenarioSpec base_spec(std::uint64_t trials) {
  ScenarioSpec spec;
  spec.name = "perf";
  spec.seed = 99;
  spec.trials = trials;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 6}};
  spec.spares = {3};
  spec.metrics.diameter = true;
  spec.metrics.stretch = false;
  spec.metrics.mttf = true;
  return spec;
}

void run_model(BenchContext& ctx, const FaultModelSpec& model, std::uint64_t trials) {
  ScenarioSpec spec = base_spec(trials);
  spec.fault_models = {model};
  // Serial on purpose: wall times must not depend on sibling benchmarks'
  // thread pools (the bench runner may already be running us in parallel).
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  const ScenarioResult& r = result.scenarios.front();
  ctx.report("trials", static_cast<double>(r.trials));
  ctx.report("success_rate", r.success_rate());
  ctx.report("mean_faults", r.fault_count.mean);
}

FTDB_BENCH(campaign_iid, "perf_campaign/iid_debruijn_h6_k3") {
  run_model(ctx, {FaultModelKind::IidBernoulli, 0.02, 1.0, 100.0, 1.0}, 2000);
}

FTDB_BENCH(campaign_clustered, "perf_campaign/clustered_debruijn_h6_k3") {
  run_model(ctx, {FaultModelKind::Clustered, 0.005, 1.0, 100.0, 1.0}, 2000);
}

FTDB_BENCH(campaign_weibull, "perf_campaign/weibull_debruijn_h6_k3") {
  run_model(ctx, {FaultModelKind::Weibull, 0.0, 1.5, 500.0, 30.0}, 2000);
}

FTDB_BENCH(campaign_adversarial, "perf_campaign/adversarial_debruijn_h6_k3") {
  run_model(ctx, {FaultModelKind::Adversarial, 0.02, 1.0, 100.0, 1.0}, 2000);
}

FTDB_BENCH(campaign_grid, "perf_campaign/grid_2topo_x3k_x2models") {
  ScenarioSpec spec = base_spec(250);
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 5},
                     {TopologyFamily::ShuffleExchange, 2, 5}};
  spec.spares = {0, 2, 4};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.03, 1.0, 100.0, 1.0},
                       {FaultModelKind::Adversarial, 0.03, 1.0, 100.0, 1.0}};
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  ctx.report("scenarios", static_cast<double>(result.scenarios.size()));
  double successes = 0;
  for (const ScenarioResult& r : result.scenarios) {
    successes += static_cast<double>(r.reconfig_success);
  }
  ctx.report("total_successes", successes);
}

// --- fault draws ---------------------------------------------------------------

/// Per-draw cost of the clocked fault models on B^4_{2,12} (4100 nodes), at
/// the campaign_survival parameters. A draw takes one uniform per node, so
/// next_unit_n4096 (4100 bare TrialRng::next_unit() calls) is its floor; CI
/// holds each draw within a fixed multiple of that floor, measured in the
/// same process so host load cancels.
constexpr unsigned kDrawH = 12;
constexpr unsigned kDrawSpares = 4;
constexpr int kDrawIterations = 2000;

double elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
}

void draw_bench(BenchContext& ctx, const FaultModelSpec& spec) {
  const ftdb::Graph fabric = ftdb::ft_debruijn_base2(kDrawH, kDrawSpares);
  const auto model = make_fault_model(spec);
  model->prepare(fabric, kDrawSpares);
  double faults = 0.0;
  double clock_sum = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kDrawIterations; ++i) {
    TrialRng rng = TrialRng::for_trial(99, 0, static_cast<std::uint64_t>(i));
    const FaultDraw draw = model->draw(fabric, kDrawSpares, rng);
    faults += static_cast<double>(draw.faults.count());
    if (std::isfinite(draw.spare_exhaustion_time)) clock_sum += draw.spare_exhaustion_time;
  }
  ctx.report("ns_per_iteration", elapsed_ns(start) / kDrawIterations);
  ctx.report("nodes", static_cast<double>(fabric.num_nodes()));
  ctx.report("mean_faults", faults / kDrawIterations);
  ctx.report("mean_exhaustion_time", clock_sum / kDrawIterations);
}

FTDB_BENCH(draw_iid, "perf_campaign/draw_iid_n4096") {
  draw_bench(ctx, {FaultModelKind::IidBernoulli, 0.001, 1.0, 100.0, 1.0});
}

FTDB_BENCH(draw_clustered, "perf_campaign/draw_clustered_n4096") {
  draw_bench(ctx, {FaultModelKind::Clustered, 0.0003, 1.0, 100.0, 1.0});
}

FTDB_BENCH(draw_weibull, "perf_campaign/draw_weibull_n4096") {
  draw_bench(ctx, {FaultModelKind::Weibull, 0.0, 2.0, 100.0, 3.5});
}

FTDB_BENCH(draw_bus_iid, "perf_campaign/draw_bus_iid_n4096") {
  draw_bench(ctx, {FaultModelKind::BusIid, 0.001, 1.0, 100.0, 1.0});
}

FTDB_BENCH(draw_bus_clustered, "perf_campaign/draw_bus_clustered_n4096") {
  draw_bench(ctx, {FaultModelKind::BusClustered, 0.0003, 1.0, 100.0, 1.0});
}

FTDB_BENCH(next_unit, "perf_campaign/next_unit_n4096") {
  const std::size_t n = std::size_t{1} << kDrawH;
  std::vector<double> u(n + kDrawSpares);
  double checksum = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kDrawIterations; ++i) {
    TrialRng rng = TrialRng::for_trial(99, 0, static_cast<std::uint64_t>(i));
    for (double& x : u) x = rng.next_unit();
    checksum += u[static_cast<std::size_t>(i) % u.size()];
  }
  ctx.report("ns_per_iteration", elapsed_ns(start) / kDrawIterations);
  ctx.report("calls_per_iteration", static_cast<double>(u.size()));
  ctx.report("checksum", checksum);
}

// --- survival: one scan per trial vs one proof per cell -----------------------

/// One monotone_embedding_survives scan against one check_tolerance_pairwise
/// proof on B^8_{2,12} (4104 nodes), a campaign_survival cell. The proof
/// covers every fault set of at most 8 faults, so a proven cell pays it once
/// instead of one scan per trial; CI holds it within 16x one scan, measured
/// in the same process so host load cancels.
constexpr unsigned kProofH = 12;
constexpr unsigned kProofSpares = 8;

FTDB_BENCH(survives_scan, "perf_campaign/survives_b2h12_k8") {
  const ftdb::Graph target = ftdb::debruijn_base2(kProofH);
  const ftdb::Graph fabric = ftdb::ft_debruijn_base2(kProofH, kProofSpares);
  ftdb::SplitMix64 rng(99);
  std::vector<ftdb::FaultSet> sets;
  for (int i = 0; i < 64; ++i) {
    sets.push_back(ftdb::FaultSet::random(fabric.num_nodes(), kProofSpares, rng));
  }
  constexpr int kIterations = 2000;
  double survived = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    const ftdb::FaultSet& faults = sets[static_cast<std::size_t>(i) % sets.size()];
    if (ftdb::monotone_embedding_survives(target, fabric, faults)) survived += 1.0;
  }
  ctx.report("ns_per_iteration", elapsed_ns(start) / kIterations);
  ctx.report("survived_fraction", survived / kIterations);
}

FTDB_BENCH(tolerance_proof, "perf_campaign/tolerance_proof_b2h12_k8") {
  const ftdb::Graph target = ftdb::debruijn_base2(kProofH);
  const ftdb::Graph fabric = ftdb::ft_debruijn_base2(kProofH, kProofSpares);
  constexpr int kIterations = 200;
  double tolerant = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    if (ftdb::check_tolerance_pairwise(target, fabric, kProofSpares).tolerant) tolerant += 1.0;
  }
  ctx.report("ns_per_iteration", elapsed_ns(start) / kIterations);
  ctx.report("tolerant_fraction", tolerant / kIterations);
}

// --- cell setup ----------------------------------------------------------------

/// One public CellRunner constructor on SE_12 with k = 8, mttf only: the
/// target, the fabric, the prepared fault model and the tolerance proof.
/// The target's diameter is a closed form, so CI holds this within half of
/// perf_graph_core/diameter_se_h12, measured in the same process: a BFS
/// that creeps back into cell setup fails it.
FTDB_BENCH(cell_setup_se_h12, "perf_campaign/cell_setup_se_h12_k8") {
  ScenarioSpec spec = base_spec(1);
  spec.topologies = {{TopologyFamily::ShuffleExchange, 2, 12}};
  spec.spares = {8};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.001, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = false;
  const ScenarioCase cell = expand_grid(spec).front();
  constexpr int kIterations = 5;
  double blocks = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    const CellRunner runner(spec, cell);
    blocks += static_cast<double>(runner.num_blocks());
  }
  ctx.report("ns_per_iteration", elapsed_ns(start) / kIterations);
  ctx.report("blocks", blocks / kIterations);
}

// --- work-stealing scheduler ------------------------------------------------

/// A 12-cell grid of 1024-trial cells: 48 blocks through the global deques.
/// Serial on purpose, like everything above — this measures the scheduler's
/// per-block overhead (deque traffic, in-order merge bookkeeping), not
/// machine parallelism the bench runner's own pool would fight with.
FTDB_BENCH(campaign_sched, "perf_campaign/steal_12cells_x4blocks_serial") {
  ScenarioSpec spec = base_spec(1024);
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4},
                     {TopologyFamily::ShuffleExchange, 2, 4}};
  spec.spares = {0, 2, 4};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.03, 1.0, 100.0, 1.0},
                       {FaultModelKind::Block, 0.03, 1.0, 100.0, 1.0, 3}};
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  ctx.report("scenarios", static_cast<double>(result.scenarios.size()));
  ctx.report("blocks", static_cast<double>(result.scenarios.size() *
                                           num_trial_blocks(spec.trials)));
}

/// Block-granular checkpoint serialization: snapshot -> JSON -> reparse for a
/// mid-flight campaign shape (every cell a merged prefix + one parked block).
FTDB_BENCH(campaign_ckpt, "perf_campaign/checkpoint_roundtrip_24cells") {
  ScenarioSpec spec = base_spec(256);
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.03, 1.0, 100.0, 1.0}};
  const ScenarioResult partial = run_campaign(spec, {.threads = 1}).scenarios.front();
  spec.trials = 1024;  // what the block partials above are a slice of
  Checkpoint ckpt;
  for (std::size_t i = 0; i < 24; ++i) {
    CellProgress cell;
    cell.scenario_index = i;
    cell.prefix_blocks = 1;
    cell.prefix = partial;
    cell.extra.emplace_back(2, partial);
    ckpt.cells.push_back(std::move(cell));
  }
  std::string json;
  std::size_t cells = 0;
  for (int rep = 0; rep < 20; ++rep) {
    json = checkpoint_to_json(spec, ckpt);
    cells += parse_checkpoint(json).cells.size();
  }
  ctx.report("roundtrips", 20.0);
  ctx.report("bytes", static_cast<double>(json.size()));
  ctx.report("cells_reparsed", static_cast<double>(cells));
}

/// The distributed path end to end: two shard runs plus the fingerprint- and
/// coverage-checked merge, with the merged report's byte-identity to the
/// single-machine run reported as a metric (1.0 = identical).
FTDB_BENCH(campaign_shard, "perf_campaign/shard2_run_merge") {
  ScenarioSpec spec = base_spec(512);
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4},
                     {TopologyFamily::ShuffleExchange, 2, 4}};
  spec.spares = {0, 3};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.03, 1.0, 100.0, 1.0}};
  const std::string reference = campaign_report_json(run_campaign(spec, {.threads = 1}));

  const std::string dir = std::filesystem::temp_directory_path().string();
  std::vector<Checkpoint> partials;
  for (std::uint32_t s = 0; s < 2; ++s) {
    CampaignOptions options;
    options.threads = 1;
    options.shard = {s, 2};
    options.checkpoint_path = dir + "/ftdb_perf_shard" + std::to_string(s) + ".ckpt";
    run_campaign(spec, options);
    std::ifstream in(options.checkpoint_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    partials.push_back(parse_checkpoint(buf.str()));
  }
  const CampaignResult merged = merge_checkpoints(spec, partials);
  ctx.report("merge_byte_identical",
             campaign_report_json(merged) == reference ? 1.0 : 0.0);
  ctx.report("shards", 2.0);
}

}  // namespace
