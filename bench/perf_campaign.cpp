// PERF6: throughput of the fault-injection campaign engine — trials/second
// for a representative grid cell per fault model, plus one mixed-grid run.
// The campaign runner is the production workload multiplier (every scenario
// re-runs construction, fault drawing, reconfiguration checks and survivor
// metrics thousands of times), so its per-trial cost is the number to watch.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/bench_registry.hpp"
#include "campaign/fault_models.hpp"
#include "campaign/rng.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/spares.hpp"
#include "ft/tolerance.hpp"
#include "serve/durable_file.hpp"
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
/// the campaign_survival parameters. A draw costs O(k + faults), so CI holds
/// each well under next_unit_n4096 (4100 bare TrialRng::next_unit() calls,
/// what a per-node draw would pay), and draw_iid_n65536, at 16x the nodes
/// and the same expected fault count, within 2x draw_iid_n4096. Each ratio
/// is measured in one process, so host load cancels.
constexpr unsigned kDrawH = 12;
constexpr unsigned kDrawSpares = 4;
constexpr int kDrawIterations = 2000;

double elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
}

void draw_bench(BenchContext& ctx, const FaultModelSpec& spec, unsigned h = kDrawH) {
  const ftdb::Graph fabric = ftdb::ft_debruijn_base2(h, kDrawSpares);
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

FTDB_BENCH(draw_iid_large, "perf_campaign/draw_iid_n65536") {
  // p scaled by 4100 / 65540, so a trial expects the same 4.1 faults.
  draw_bench(ctx, {FaultModelKind::IidBernoulli, 0.001 * 4100.0 / 65540.0, 1.0, 100.0, 1.0}, 16);
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

/// One analytic Weibull MTTF at a campaign_survival cell: B^8_{2,12}
/// (4104 nodes), shape 2, scale 100. The campaign's finalize pays it once
/// per Weibull cell.
FTDB_BENCH(weibull_mttf, "perf_campaign/weibull_mttf_n4104_k8") {
  constexpr int kIterations = 50;
  double value = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) value = ftdb::weibull_mttf(4104, 8, 2.0, 100.0);
  ctx.report("ns_per_iteration", elapsed_ns(start) / kIterations);
  ctx.report("value", value);
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

/// One serial run_campaign over SE_12 with k = 8 crossed with the four
/// campaign_survival fault models, one trial per cell, mttf only: almost all
/// of it is cell setup. The four cells share one target, one fabric and one
/// tolerance proof, so CI holds this within 2x cell_setup_se_h12_k8 (one
/// cell building all of them), measured in the same process; a fabric built
/// per cell again reads about 4x. It reads 1.2-1.7 (1.0-1.5 ms for one
/// cell, 1.6-2.0 ms for the grid, 4-vCPU Xeon, Release): on top of one
/// cell's setup the grid prepares four fault models, runs four one-trial
/// cells and writes their report.
FTDB_BENCH(grid_setup_se_h12, "perf_campaign/grid_setup_se_h12_k8_4models") {
  ScenarioSpec spec = base_spec(1);
  spec.topologies = {{TopologyFamily::ShuffleExchange, 2, 12}};
  spec.spares = {8};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.001, 1.0, 100.0, 1.0},
                       {FaultModelKind::Clustered, 0.0003, 1.0, 100.0, 1.0},
                       {FaultModelKind::Weibull, 0.01, 2.0, 100.0, 3.5},
                       {FaultModelKind::BusIid, 0.001, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = false;
  constexpr int kIterations = 5;
  double cells = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    cells += static_cast<double>(run_campaign(spec, {.threads = 1}).scenarios.size());
  }
  ctx.report("ns_per_iteration", elapsed_ns(start) / kIterations);
  ctx.report("cells", cells / kIterations);
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

/// Parallel efficiency on the examples/specs/campaign_sim.json grid: 12
/// one-block cells of 64 simulator trials, run whole at 1 worker thread and
/// at 4, each the fastest of 3 runs. With fewer blocks than workers can keep
/// busy, run_work_units cuts the blocks into trial chunks, so `speedup` is
/// what that buys. Not serial, unlike the rest of this file: run it under
/// `bench_runner --threads 1`, and read the ratio only on an otherwise idle
/// machine of at least 4 cores. No gate reads it.
FTDB_BENCH(campaign_sim_threads, "perf_campaign/sim_grid_threads") {
  const ScenarioSpec spec = parse_scenario_spec(
      ftdb::serve::read_file(std::string(FTDB_SOURCE_DIR) + "/examples/specs/campaign_sim.json"));
  const double trials = static_cast<double>(spec.trials * expand_grid(spec).size());
  const auto trials_per_s = [&](unsigned threads) {
    double best = HUGE_VAL;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      (void)run_campaign(spec, {.threads = threads});
      best = std::min(best, std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                                .count());
    }
    return trials / best;
  };
  const double serial = trials_per_s(1);
  const double parallel = trials_per_s(4);
  ctx.report("trials", trials);
  ctx.report("trials_per_s_1_thread", serial);
  ctx.report("trials_per_s_4_threads", parallel);
  ctx.report("speedup", parallel / serial);
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

}  // namespace
