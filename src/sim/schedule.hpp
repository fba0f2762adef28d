// Collective-communication schedules as arithmetic plans, and their
// execution on the packet engine.
//
// This is the layer the paper's machines exist to serve: a collective
// (all-to-all, allgather, allreduce) is a `Schedule` — its kind and rank
// count, nothing more. Every synchronous step is a function of
// (step, rank): rank r sends `count` items to one peer with one op, or
// nothing. A plan is executed either *functionally* (flat per-item
// holder/value arrays, for correctness against a serial oracle) or
// *operationally* (every logical send becomes a routed multi-hop packet
// batch through PacketSimulator on a machine's live logical graph). Running
// the same schedule on a healthy machine, a dilation-1 reconfigured
// machine, and a degraded bare-target machine turns the structural
// fault-tolerance story into an end-to-end one: "how much does an
// allreduce slow down at f faults".
//
// Algorithms (all correct for any rank count n, not just powers of two):
//  * Bruck all-to-all        — ceil(log2 n) rounds; item (i -> j) rides the
//                              binary expansion of its displacement
//                              d = (j - i) mod n.
//  * pairwise all-to-all     — n - 1 rounds; XOR partners when n is a power
//                              of two, ring offsets otherwise.
//  * recursive-doubling      — log2 p rounds on the p = 2^floor(log2 n)
//    allgather                 participants, plus a pre/post round pairing
//                              the n - p extra ranks (Multiverso-style
//                              neighbor folding).
//  * Bruck allgather         — ceil(log2 n) dissemination rounds, final
//                              round capped at n - 2^k blocks.
//  * recursive halving/      — Rabenseifner allreduce: reduce-scatter by
//    doubling allreduce        recursive halving over contiguous block
//                              ranges, allgather by recursive doubling,
//                              pre/post neighbor rounds when n is not a
//                              power of two.
//  * reduce-scatter +        — ring reduce-scatter (n - 1 rounds, block b
//    allgather allreduce       ends reduced at rank b) followed by a Bruck
//                              allgather of the reduced blocks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/engine.hpp"

namespace ftdb::sim {

enum class ScheduleKind {
  AllToAllBruck,
  AllToAllPairwise,
  AllgatherRecursiveDoubling,
  AllgatherBruck,
  AllreduceRecursiveHalvingDoubling,
  AllreduceReduceScatterAllgather,
};

/// What a send does to the sender's and receiver's items.
enum class TransferOp {
  Copy,    // receiver gets the value, sender keeps it (allgather)
  Move,    // receiver gets the value, sender drops it (all-to-all)
  Reduce,  // receiver adds the value to its own, sender drops it (allreduce)
};

const char* schedule_kind_name(ScheduleKind kind);
ScheduleKind schedule_kind_from_name(const std::string& name);

/// One rank's part of one step: `count` items travel to `peer` with `op`.
/// A rank that sits the step out has count 0.
struct Send {
  std::uint32_t peer = 0;
  TransferOp op = TransferOp::Copy;
  std::uint32_t count = 0;
};

struct Schedule {
  ScheduleKind kind = ScheduleKind::AllToAllBruck;
  std::uint32_t num_ranks = 0;

  std::size_t rounds() const;
  /// Total number of (key, hop-0) logical sends across all steps.
  std::uint64_t total_sends() const;
  /// What `rank` sends at `step`; requires step < rounds() and
  /// rank < num_ranks.
  Send send(std::size_t step, std::uint32_t rank) const;
};

/// The plan for `kind` over `num_ranks` ranks. Throws std::invalid_argument
/// when num_ranks == 0.
Schedule build_schedule(ScheduleKind kind, std::uint32_t num_ranks);

// --- Functional execution (correctness layer) -------------------------------

/// Flat item state of n ranks, n² cells. All-to-all item (i, j) has key
/// i * n + j and lives in cell i * n + j wherever it travels; allgather and
/// allreduce block b has key b, and rank r's copy of it is cell r * n + b.
struct FunctionalState {
  static constexpr std::uint32_t kNobody = 0xffffffffu;
  std::vector<std::uint32_t> holder;  // the rank holding each cell, or kNobody
  std::vector<std::int64_t> value;
};

/// Applies the schedule to the flat state with synchronous-round semantics:
/// every send in a step reads the sender state as of the step start. Throws
/// std::invalid_argument when the state is not n² cells, and
/// std::logic_error if a sender does not hold a key it is scheduled to send —
/// a malformed start state must fail loudly, not drop data.
FunctionalState run_schedule_functional(const Schedule& schedule, FunctionalState state);

/// Builds the canonical initial state for the schedule's collective class,
/// runs it functionally, and checks the result against the serial oracle
/// (all-to-all: rank j ends with exactly {(i, j) : i}; allgather: every rank
/// ends with every block; allreduce: every rank ends with every block reduced
/// to the full sum). Throws std::logic_error with a description on the first
/// mismatch.
void verify_schedule_functional(const Schedule& schedule);

// --- Operational execution (packet engine layer) ----------------------------

struct ScheduleRunOptions {
  RouterOptions router;
  /// Per-step cycle budget handed to PacketSimulator::run (0 = run to drain;
  /// this still terminates unconditionally because reachability is checked at
  /// injection, so a disconnected degraded machine reports undeliverable
  /// instead of hanging).
  std::uint64_t max_cycles_per_step = 0;
};

/// The campaign metric family for one schedule execution.
struct ScheduleRunResult {
  std::size_t rounds = 0;                 // steps executed
  std::uint64_t total_cycles = 0;         // sum of per-step completion times
  std::uint64_t total_hop_cycles = 0;     // sum of per-packet hop counts
  std::size_t max_link_congestion = 0;    // max per-link queue depth seen
  std::uint64_t logical_sends = 0;        // packets injected
  std::uint64_t delivered = 0;
  std::uint64_t undeliverable = 0;
  std::uint64_t timed_out = 0;

  /// True when every logical send of every round arrived.
  bool completed() const { return undeliverable == 0 && timed_out == 0; }
};

/// Replaces `packets` with step `step`'s batch: rank r lives at logical node
/// rank_to_logical[r] and emits `count` packets to its peer, injected at
/// cycle 0, senders in ascending rank order, ids 0, 1, 2, ... Throws
/// std::invalid_argument when rank_to_logical does not match
/// schedule.num_ranks.
void schedule_step_packets(const Schedule& schedule, std::size_t step,
                           const std::vector<NodeId>& rank_to_logical,
                           std::vector<Packet>& packets);

/// Executes the schedule on the simulator's live logical graph: each step's
/// batch (schedule_step_packets) runs to drain (or to max_cycles_per_step;
/// 0 = drain). Every run() is independent, so one simulator can serve any
/// number of schedules and traffic batches. Throws std::invalid_argument
/// when rank_to_logical does not match schedule.num_ranks.
ScheduleRunResult execute_schedule(PacketSimulator& sim, const Schedule& schedule,
                                   const std::vector<NodeId>& rank_to_logical,
                                   std::uint64_t max_cycles_per_step = 0);

/// Builds a simulator on the machine's live logical graph and runs the
/// schedule on it (the overload above).
ScheduleRunResult execute_schedule(const Machine& machine, const Graph& target,
                                   const Schedule& schedule,
                                   const std::vector<NodeId>& rank_to_logical,
                                   const ScheduleRunOptions& options = {});

/// Result of running a collective over a machine's live nodes.
struct CollectiveRunResult {
  std::vector<NodeId> participants;  // live logical nodes, ascending
  ScheduleRunResult run;
};

/// Builds the schedule over the machine's *live* logical nodes (rank r = the
/// r-th live logical id, ascending) and executes it. On a healthy or
/// dilation-1 reconfigured machine this is the full target node set; on a
/// degraded machine the survivors. Throws std::invalid_argument when no
/// logical node is alive.
CollectiveRunResult execute_collective(const Machine& machine, const Graph& target,
                                       ScheduleKind kind,
                                       const ScheduleRunOptions& options = {});

}  // namespace ftdb::sim
