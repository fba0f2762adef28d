// PERF7: the collective-schedule layer — plan construction and send
// counting, functional-executor throughput, and end-to-end packet-engine
// execution on healthy and degraded machines. The campaign's collective
// metric takes the cell's healthy run on success and runs execute_schedule
// twice on failure (degraded run + matched healthy baseline of the
// survivors' plan), so these are the inner loops of every
// collective-slowdown sweep.
#include <chrono>

#include "analysis/bench_registry.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "sim/schedule.hpp"
#include "topology/debruijn.hpp"

namespace {

using ftdb::Graph;
using ftdb::NodeId;
using ftdb::analysis::BenchContext;
using namespace ftdb::sim;

std::vector<NodeId> identity_ranks(std::size_t n) {
  std::vector<NodeId> ranks(n);
  for (std::size_t v = 0; v < n; ++v) ranks[v] = static_cast<NodeId>(v);
  return ranks;
}

}  // namespace

FTDB_BENCH(collectives_build, "perf_collectives/build_schedules_n256") {
  // Build every plan at n = 256 (B_{2,8} / B_{4,4} scale) and count its
  // rounds and sends, repeatedly. Building is O(1); the count walks every
  // (step, rank) of the plan.
  const int reps = 20;
  std::uint64_t sends = 0;
  std::size_t rounds = 0;
  for (int i = 0; i < reps; ++i) {
    for (const ScheduleKind kind :
         {ScheduleKind::AllToAllBruck, ScheduleKind::AllToAllPairwise,
          ScheduleKind::AllgatherRecursiveDoubling, ScheduleKind::AllgatherBruck,
          ScheduleKind::AllreduceRecursiveHalvingDoubling,
          ScheduleKind::AllreduceReduceScatterAllgather}) {
      const Schedule s = build_schedule(kind, 256);
      sends += s.total_sends();
      rounds += s.rounds();
    }
  }
  ctx.report("iterations", reps);
  ctx.report("total_sends", static_cast<double>(sends / reps));
  ctx.report("total_rounds", static_cast<double>(rounds / static_cast<std::size_t>(reps)));
}

FTDB_BENCH(collectives_functional, "perf_collectives/functional_oracle_n243") {
  // The correctness layer at a non-power-of-two rank count (B_{3,5}): every
  // plan verified against the serial oracle.
  for (const ScheduleKind kind :
       {ScheduleKind::AllToAllBruck, ScheduleKind::AllgatherRecursiveDoubling,
        ScheduleKind::AllgatherBruck, ScheduleKind::AllreduceRecursiveHalvingDoubling,
        ScheduleKind::AllreduceReduceScatterAllgather}) {
    verify_schedule_functional(build_schedule(kind, 243));
  }
  ctx.report("ranks", 243);
}

FTDB_BENCH(collectives_a2a_healthy, "perf_collectives/bruck_a2a_debruijn_h8") {
  // End-to-end Bruck all-to-all on a healthy B_{2,8}: 256 ranks, 8 rounds,
  // 65k logical sends routed hop by hop through the packet engine.
  const Graph target = ftdb::debruijn_base2(8);
  const Machine m = Machine::direct(target);
  const Schedule s = build_schedule(ScheduleKind::AllToAllBruck, 256);
  const ScheduleRunResult r = execute_schedule(m, target, s, identity_ranks(256));
  ctx.report("rounds", static_cast<double>(r.rounds));
  ctx.report("total_cycles", static_cast<double>(r.total_cycles));
  ctx.report("total_hop_cycles", static_cast<double>(r.total_hop_cycles));
  ctx.report("max_link_congestion", static_cast<double>(r.max_link_congestion));
  ctx.report("delivered", static_cast<double>(r.delivered));
}

FTDB_BENCH(collectives_allreduce_healthy, "perf_collectives/allreduce_rhd_debruijn_h8") {
  const Graph target = ftdb::debruijn_base2(8);
  const Machine m = Machine::direct(target);
  const Schedule s = build_schedule(ScheduleKind::AllreduceRecursiveHalvingDoubling, 256);
  const ScheduleRunResult r = execute_schedule(m, target, s, identity_ranks(256));
  ctx.report("rounds", static_cast<double>(r.rounds));
  ctx.report("total_cycles", static_cast<double>(r.total_cycles));
  ctx.report("delivered", static_cast<double>(r.delivered));
}

FTDB_BENCH(collectives_degraded, "perf_collectives/bruck_a2a_degraded_h7") {
  // The failed-trial path: survivors-only schedule on a degraded B_{2,7}
  // (8 dead nodes), including the matched healthy-baseline run the campaign
  // prices slowdown against.
  const Graph target = ftdb::debruijn_base2(7);
  const ftdb::FaultSet faults(target.num_nodes(), {3, 17, 40, 64, 77, 90, 101, 120});
  const Machine degraded = Machine::direct_with_faults(target, faults);
  const Machine healthy = Machine::direct(target);
  const CollectiveRunResult r = execute_collective(degraded, target, ScheduleKind::AllToAllBruck);
  const Schedule sched =
      build_schedule(ScheduleKind::AllToAllBruck,
                     static_cast<std::uint32_t>(r.participants.size()));
  const ScheduleRunResult base = execute_schedule(healthy, target, sched, r.participants);
  ctx.report("participants", static_cast<double>(r.participants.size()));
  ctx.report("degraded_cycles", static_cast<double>(r.run.total_cycles));
  ctx.report("healthy_cycles", static_cast<double>(base.total_cycles));
  ctx.report("undeliverable", static_cast<double>(r.run.undeliverable));
}

FTDB_BENCH(collectives_engine_bruck, "perf_collectives/engine_bruck_b2_h6") {
  // The engine's share of a failed campaign_sim trial, attributed per hop
  // and per packet: the survivors' Bruck all-to-all on B_{2,6} with 3 target
  // faults, run on the degraded machine and on the healthy one, the pair
  // the trial prices its slowdown with. Both simulators are built once;
  // only execute_schedule is timed.
  const Graph target = ftdb::debruijn_base2(6);
  const ftdb::FaultSet faults(target.num_nodes(), {5, 22, 41});
  PacketSimulator degraded(Machine::direct_with_faults(target, faults), target);
  PacketSimulator healthy(Machine::direct(target), target);
  std::vector<NodeId> survivors;
  for (NodeId v = 0; v < target.num_nodes(); ++v) {
    if (!faults.is_faulty(v)) survivors.push_back(v);
  }
  const Schedule sched =
      build_schedule(ScheduleKind::AllToAllBruck, static_cast<std::uint32_t>(survivors.size()));
  constexpr int kIterations = 20;
  ScheduleRunResult on_degraded;
  ScheduleRunResult on_healthy;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    on_degraded = execute_schedule(degraded, sched, survivors);
    on_healthy = execute_schedule(healthy, sched, survivors);
  }
  const double ns = static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                            std::chrono::steady_clock::now() - start)
                                            .count()) /
                    kIterations;
  const double hops = static_cast<double>(on_degraded.total_hop_cycles + on_healthy.total_hop_cycles);
  const double packets = static_cast<double>(on_degraded.logical_sends + on_healthy.logical_sends);
  ctx.report("ns_per_hop", ns / hops);
  ctx.report("ns_per_packet", ns / packets);
  ctx.report("total_cycles", static_cast<double>(on_degraded.total_cycles + on_healthy.total_cycles));
  ctx.report("total_hop_cycles", hops);
}

FTDB_BENCH(collectives_campaign, "perf_collectives/campaign_collective_h5_k2") {
  // The production shape: a campaign cell with the collective metric on —
  // per-trial schedule execution dominated by the degraded/baseline pair.
  using namespace ftdb::campaign;
  ScenarioSpec spec;
  spec.name = "perf";
  spec.seed = 7;
  spec.trials = 400;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 5}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = false;
  spec.metrics.mttf = false;
  spec.metrics.collective = true;
  spec.metrics.collective_schedule = "all_to_all_bruck";
  // Serial on purpose: wall times must not depend on sibling benchmarks'
  // thread pools (the bench runner may already be running us in parallel).
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  const ScenarioResult& r = result.scenarios.front();
  ctx.report("trials", static_cast<double>(r.trials));
  ctx.report("slowdown_mean", r.collective_slowdown.mean);
  ctx.report("unreachable", static_cast<double>(r.collective_unreachable));
  ctx.report("baseline_cycles", static_cast<double>(r.collective_baseline_cycles));
}

FTDB_BENCH(collectives_campaign_sim_cell, "perf_collectives/campaign_sim_cell_b3h4_k2") {
  // The costliest cell of the campaign_sim grid, trial path only: one
  // run_block(0) (its 64 trials) of B_{3,4}, k = 2, iid p = 0.02 with every
  // per-trial metric that grid prices — sampled stretch over 64 pairs, the
  // Bruck all-to-all and zipf traffic. A failed trial builds a degraded
  // simulator (its table router) and runs the collective twice; a successful
  // one audits stretch on the block's healthy router and runs the traffic.
  using namespace ftdb::campaign;
  ScenarioSpec spec;
  spec.name = "perf";
  spec.seed = 7;
  spec.trials = 64;
  spec.topologies = {{TopologyFamily::DeBruijn, 3, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.02, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = true;
  spec.metrics.stretch = true;
  spec.metrics.stretch_sample_pairs = 64;
  spec.metrics.mttf = false;
  spec.metrics.collective = true;
  spec.metrics.collective_schedule = "all_to_all_bruck";
  spec.metrics.traffic = true;
  spec.metrics.traffic_spec.pattern = "zipf";
  spec.metrics.traffic_spec.theta = 1.0;
  spec.metrics.traffic_spec.packets_per_node = 4;
  const CellRunner runner(spec, expand_grid(spec).front());
  constexpr int kIterations = 5;
  ScenarioResult r;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) r = runner.run_block(0);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ctx.report("ns_per_iteration",
             static_cast<double>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
                 kIterations);
  ctx.report("trials", static_cast<double>(r.trials));
  ctx.report("successes", static_cast<double>(r.reconfig_success));
  ctx.report("stretch_max", r.route_stretch.max);
  ctx.report("slowdown_mean", r.collective_slowdown.mean);
  ctx.report("traffic_latency_mean", r.traffic_latency.mean);
}
