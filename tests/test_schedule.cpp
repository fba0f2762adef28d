// Tests for the collective schedule plans (Bruck / pairwise all-to-all,
// recursive-doubling / Bruck allgather, Rabenseifner / ring+Bruck allreduce):
// functional correctness against the serial oracle on every B_{m,h} and SE_h
// node count, round-count guarantees, and operational execution on healthy,
// reconfigured, and degraded machines.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ft/ft_debruijn.hpp"
#include "sim/schedule.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::sim {
namespace {

std::size_t ceil_log2(std::uint32_t n) {
  std::size_t k = 0;
  while ((std::uint32_t{1} << k) < n) ++k;
  return k;
}

const std::vector<ScheduleKind> kAllKinds = {
    ScheduleKind::AllToAllBruck,
    ScheduleKind::AllToAllPairwise,
    ScheduleKind::AllgatherRecursiveDoubling,
    ScheduleKind::AllgatherBruck,
    ScheduleKind::AllreduceRecursiveHalvingDoubling,
    ScheduleKind::AllreduceReduceScatterAllgather,
};

// Node counts of every machine the suite targets: B_{m,h} for m in {2,3,4},
// h in {2..5} (SE_h shares the base-2 counts), plus tiny/degenerate ranks.
const std::vector<std::uint32_t> kRankCounts = {1,  2,  3,   4,   5,   8,   9,  16,
                                                27, 32, 64, 81, 243, 256, 1024};

TEST(ScheduleFunctional, EveryKindMatchesSerialOracle) {
  // 1000 = 512 + 488: a non-power-of-two whose folded ranks outnumber
  // half the core.
  std::vector<std::uint32_t> counts = kRankCounts;
  counts.push_back(1000);
  for (const ScheduleKind kind : kAllKinds) {
    for (const std::uint32_t n : counts) {
      SCOPED_TRACE(std::string(schedule_kind_name(kind)) + " n=" + std::to_string(n));
      EXPECT_NO_THROW(verify_schedule_functional(build_schedule(kind, n)));
    }
  }
}

TEST(ScheduleFunctional, NamesRoundTrip) {
  for (const ScheduleKind kind : kAllKinds) {
    EXPECT_EQ(schedule_kind_from_name(schedule_kind_name(kind)), kind);
  }
  EXPECT_THROW(schedule_kind_from_name("alltoall"), std::invalid_argument);
}

TEST(ScheduleFunctional, ZeroRanksThrows) {
  for (const ScheduleKind kind : kAllKinds) {
    EXPECT_THROW(build_schedule(kind, 0), std::invalid_argument);
  }
}

TEST(ScheduleFunctional, MalformedScheduleFailsLoudly) {
  // A valid plan started from a state that lacks a key the plan sends must
  // throw, not silently drop the item. Every rank r holds row r of the
  // state except rank 0, which holds nothing yet sends at step 0.
  for (const ScheduleKind kind : kAllKinds) {
    SCOPED_TRACE(schedule_kind_name(kind));
    const Schedule plan = build_schedule(kind, 4);
    FunctionalState state{std::vector<std::uint32_t>(16, FunctionalState::kNobody),
                          std::vector<std::int64_t>(16, 1)};
    for (std::uint32_t cell = 4; cell < 16; ++cell) state.holder[cell] = cell / 4;
    EXPECT_THROW(run_schedule_functional(plan, state), std::logic_error);
  }
  const Schedule plan = build_schedule(ScheduleKind::AllgatherBruck, 2);
  EXPECT_THROW(run_schedule_functional(plan, FunctionalState{}), std::invalid_argument);
}

TEST(ScheduleRounds, BruckAllToAllIsCeilLog2) {
  for (const std::uint32_t n : kRankCounts) {
    const Schedule s = build_schedule(ScheduleKind::AllToAllBruck, n);
    EXPECT_EQ(s.rounds(), ceil_log2(n)) << "n=" << n;
  }
}

TEST(ScheduleRounds, RecursiveDoublingAllgatherIsLog2OnPowersOfTwo) {
  for (const std::uint32_t n : {2u, 4u, 8u, 16u, 32u, 64u, 256u, 1024u}) {
    const Schedule s = build_schedule(ScheduleKind::AllgatherRecursiveDoubling, n);
    EXPECT_EQ(s.rounds(), ceil_log2(n)) << "n=" << n;
  }
}

TEST(ScheduleRounds, PairwiseAllToAllIsNMinusOne) {
  for (const std::uint32_t n : {2u, 5u, 8u, 9u}) {
    EXPECT_EQ(build_schedule(ScheduleKind::AllToAllPairwise, n).rounds(), n - 1u);
  }
}

TEST(ScheduleExecute, EveryKindCompletesOnHealthyMachines) {
  // Every schedule drains on a healthy B_{2,3} and SE_3 with zero loss.
  for (const Graph& target : {debruijn_base2(3), shuffle_exchange_graph(3)}) {
    const Machine m = Machine::direct(target);
    std::vector<NodeId> ranks(target.num_nodes());
    for (NodeId v = 0; v < target.num_nodes(); ++v) ranks[v] = v;
    for (const ScheduleKind kind : kAllKinds) {
      SCOPED_TRACE(schedule_kind_name(kind));
      const Schedule s =
          build_schedule(kind, static_cast<std::uint32_t>(target.num_nodes()));
      const ScheduleRunResult r = execute_schedule(m, target, s, ranks);
      EXPECT_TRUE(r.completed());
      EXPECT_EQ(r.rounds, s.rounds());
      EXPECT_EQ(r.logical_sends, s.total_sends());
      EXPECT_EQ(r.delivered, r.logical_sends);
      EXPECT_GT(r.total_cycles, 0u);
      EXPECT_GE(r.total_hop_cycles, r.delivered);  // every send travels >= 1 hop
    }
  }
}

TEST(ScheduleExecute, BruckAllToAllRoundsOnHealthyBaseTwo) {
  // The acceptance criterion: on a healthy B_{2,h} the Bruck all-to-all
  // executes in exactly ceil(log2 n) = h rounds.
  for (unsigned h : {2u, 3u, 4u, 5u}) {
    const Graph target = debruijn_base2(h);
    const CollectiveRunResult r =
        execute_collective(Machine::direct(target), target, ScheduleKind::AllToAllBruck);
    EXPECT_EQ(r.participants.size(), target.num_nodes());
    EXPECT_EQ(r.run.rounds, static_cast<std::size_t>(h)) << "h=" << h;
    EXPECT_TRUE(r.run.completed());
  }
}

TEST(ScheduleExecute, ReconfiguredMachineMatchesHealthyExactly) {
  // Dilation-1 reconfiguration presents the identical logical graph, so the
  // deterministic engine produces byte-identical metrics: slowdown is 1.0.
  const unsigned h = 4;
  const Graph target = debruijn_base2(h);
  const Graph ft = ft_debruijn_base2(h, 2);
  const FaultSet faults(ft.num_nodes(), {3, 11});
  const Machine healthy = Machine::direct(target);
  const Machine reconf = Machine::reconfigured(ft, faults, target.num_nodes());
  std::vector<NodeId> ranks(target.num_nodes());
  for (NodeId v = 0; v < target.num_nodes(); ++v) ranks[v] = v;
  for (const ScheduleKind kind : kAllKinds) {
    SCOPED_TRACE(schedule_kind_name(kind));
    const Schedule s = build_schedule(kind, static_cast<std::uint32_t>(target.num_nodes()));
    const ScheduleRunResult base = execute_schedule(healthy, target, s, ranks);
    const ScheduleRunResult after = execute_schedule(reconf, target, s, ranks);
    EXPECT_EQ(after.total_cycles, base.total_cycles);
    EXPECT_EQ(after.total_hop_cycles, base.total_hop_cycles);
    EXPECT_EQ(after.max_link_congestion, base.max_link_congestion);
    EXPECT_TRUE(after.completed());
  }
}

TEST(ScheduleExecute, DegradedMachineReroutesOrReportsUnreachableNeverHangs) {
  // Faults on the bare target: the collective over the survivors either
  // completes (rerouted around the holes, with a measurable cost) or reports
  // the loss — and in both cases terminates, because reachability is checked
  // at injection. Every logical send is accounted for.
  const Graph target = debruijn_base2(4);
  for (const std::vector<NodeId>& dead :
       {std::vector<NodeId>{1}, std::vector<NodeId>{1, 8}, std::vector<NodeId>{1, 2, 4, 8},
        std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7}}) {
    SCOPED_TRACE(::testing::Message() << dead.size() << " faults");
    const Machine degraded =
        Machine::direct_with_faults(target, FaultSet(target.num_nodes(), dead));
    for (const ScheduleKind kind : kAllKinds) {
      const CollectiveRunResult r = execute_collective(degraded, target, kind);
      EXPECT_EQ(r.participants.size(), target.num_nodes() - dead.size());
      EXPECT_EQ(r.run.logical_sends,
                r.run.delivered + r.run.undeliverable + r.run.timed_out);
      if (r.run.completed()) {
        EXPECT_GT(r.run.total_cycles, 0u);  // measured slowdown, not a freebie
      } else {
        EXPECT_GT(r.run.undeliverable, 0u);
      }
    }
  }
}

TEST(ScheduleExecute, DegradedSlowdownIsMeasurable) {
  // When the survivors stay connected, rerouting around a fault costs hops:
  // the degraded run of the survivors' schedule is no cheaper than a healthy
  // run of the same schedule would predict per round, and strictly pays for
  // detours somewhere (total hop-cycles at least the number of sends).
  const Graph target = debruijn_base2(5);
  const Machine degraded =
      Machine::direct_with_faults(target, FaultSet(target.num_nodes(), {7}));
  const CollectiveRunResult r =
      execute_collective(degraded, target, ScheduleKind::AllgatherBruck);
  ASSERT_TRUE(r.run.completed());
  EXPECT_EQ(r.participants.size(), 31u);
  EXPECT_GT(r.run.total_cycles, r.run.rounds);  // > 1 cycle/round: real routing work
  EXPECT_GE(r.run.total_hop_cycles, r.run.delivered);
}

TEST(ScheduleExecute, PerStepBudgetTruncatesWithoutLosingPackets) {
  const Graph target = debruijn_base2(4);
  const Machine m = Machine::direct(target);
  std::vector<NodeId> ranks(target.num_nodes());
  for (NodeId v = 0; v < target.num_nodes(); ++v) ranks[v] = v;
  const Schedule s = build_schedule(ScheduleKind::AllToAllBruck, 16);
  ScheduleRunOptions options;
  options.max_cycles_per_step = 1;
  const ScheduleRunResult r = execute_schedule(m, target, s, ranks, options);
  EXPECT_FALSE(r.completed());
  EXPECT_GT(r.timed_out, 0u);
  EXPECT_EQ(r.logical_sends, r.delivered + r.undeliverable + r.timed_out);
}

TEST(ScheduleExecute, RankMapSizeMismatchThrows) {
  const Graph target = debruijn_base2(3);
  const Machine m = Machine::direct(target);
  const Schedule s = build_schedule(ScheduleKind::AllgatherBruck, 8);
  EXPECT_THROW(execute_schedule(m, target, s, std::vector<NodeId>{0, 1, 2}),
               std::invalid_argument);
}

TEST(ScheduleExecute, AllNodesDeadThrows) {
  const Graph target = debruijn_base2(2);
  const Machine dead =
      Machine::direct_with_faults(target, FaultSet(target.num_nodes(), {0, 1, 2, 3}));
  EXPECT_THROW(execute_collective(dead, target, ScheduleKind::AllToAllBruck),
               std::invalid_argument);
}

TEST(ScheduleExecute, BaseThreeMachineRunsNonPowerOfTwoSchedules) {
  // B_{3,3}: 27 ranks — every plan's non-power-of-two path, executed
  // end to end on the matching machine.
  const Graph target = debruijn_graph({.base = 3, .digits = 3});
  const Machine m = Machine::direct(target);
  for (const ScheduleKind kind : kAllKinds) {
    SCOPED_TRACE(schedule_kind_name(kind));
    const CollectiveRunResult r = execute_collective(m, target, kind);
    EXPECT_TRUE(r.run.completed());
    EXPECT_EQ(r.participants.size(), 27u);
  }
}

}  // namespace
}  // namespace ftdb::sim
