#include "sim/schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ftdb::sim {

namespace {

std::uint32_t floor_pow2(std::uint32_t n) {
  std::uint32_t p = 1;
  while (p <= n / 2) p *= 2;
  return p;
}

unsigned ceil_log2(std::uint32_t n) {
  unsigned k = 0;
  while ((std::uint64_t{1} << k) < n) ++k;
  return k;
}

void require_ranks(std::uint32_t num_ranks) {
  if (num_ranks == 0) throw std::invalid_argument("build_schedule: num_ranks must be >= 1");
}

// ---- all-to-all -------------------------------------------------------------
//
// Item keys are i * n + j (origin i, final destination j). The Bruck variant
// moves item (i, j) through the binary expansion of its displacement
// d = (j - i) mod n: after bits 0..k-1 are processed the item sits at rank
// (i + (d mod 2^k)) mod n, and bit k (when set) ships it 2^k ranks forward.

Schedule all_to_all_bruck(std::uint32_t n) {
  Schedule sched{ScheduleKind::AllToAllBruck, n, {}};
  const unsigned log_rounds = ceil_log2(n);
  for (unsigned k = 0; k < log_rounds; ++k) {
    ScheduleStep step;
    const std::uint32_t stride = std::uint32_t{1} << k;
    const std::uint32_t below = stride - 1;  // mask of already-processed bits
    std::vector<std::vector<std::uint64_t>> outgoing(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        const std::uint32_t d = (j + n - i) % n;
        if ((d & stride) == 0) continue;
        const std::uint32_t at = (i + (d & below)) % n;
        outgoing[at].push_back(std::uint64_t{i} * n + j);
      }
    }
    for (std::uint32_t r = 0; r < n; ++r) {
      if (outgoing[r].empty()) continue;
      std::sort(outgoing[r].begin(), outgoing[r].end());
      step.transfers.push_back(
          Transfer{r, (r + stride) % n, TransferOp::Move, std::move(outgoing[r])});
    }
    sched.steps.push_back(std::move(step));
  }
  return sched;
}

Schedule all_to_all_pairwise(std::uint32_t n) {
  Schedule sched{ScheduleKind::AllToAllPairwise, n, {}};
  const bool pow2 = (n & (n - 1)) == 0;
  for (std::uint32_t s = 1; s < n; ++s) {
    ScheduleStep step;
    for (std::uint32_t r = 0; r < n; ++r) {
      // XOR partners give a perfect pairing when n is a power of two; a ring
      // offset keeps every rank busy every round otherwise.
      const std::uint32_t peer = pow2 ? (r ^ s) : (r + s) % n;
      step.transfers.push_back(
          Transfer{r, peer, TransferOp::Move, {std::uint64_t{r} * n + peer}});
    }
    sched.steps.push_back(std::move(step));
  }
  return sched;
}

// ---- allgather --------------------------------------------------------------
//
// Block keys are the origin ranks 0..n-1; rank r starts holding block r.

Schedule allgather_recursive_doubling(std::uint32_t n) {
  Schedule sched{ScheduleKind::AllgatherRecursiveDoubling, n, {}};
  const std::uint32_t p = floor_pow2(n);
  const std::uint32_t rest = n - p;  // ranks 0..rest-1 fold into rest..2*rest-1
  if (rest > 0) {
    ScheduleStep pre;
    for (std::uint32_t i = 0; i < rest; ++i) {
      pre.transfers.push_back(Transfer{i, i + rest, TransferOp::Copy, {i}});
    }
    sched.steps.push_back(std::move(pre));
  }
  // Core recursive doubling over virtual ranks v = real - rest. held[v] is
  // maintained explicitly: the pre-fold makes the initial sets non-uniform.
  std::vector<std::vector<std::uint64_t>> held(p);
  for (std::uint32_t v = 0; v < p; ++v) {
    if (v < rest) held[v].push_back(v);  // the folded neighbor's block
    held[v].push_back(v + rest);
  }
  for (std::uint32_t stride = 1; stride < p; stride *= 2) {
    ScheduleStep step;
    for (std::uint32_t v = 0; v < p; ++v) {
      std::vector<std::uint64_t> keys = held[v];
      std::sort(keys.begin(), keys.end());
      step.transfers.push_back(
          Transfer{v + rest, (v ^ stride) + rest, TransferOp::Copy, std::move(keys)});
    }
    sched.steps.push_back(std::move(step));
    std::vector<std::vector<std::uint64_t>> next = held;
    for (std::uint32_t v = 0; v < p; ++v) {
      const auto& in = held[v ^ stride];
      next[v].insert(next[v].end(), in.begin(), in.end());
    }
    held = std::move(next);
  }
  if (rest > 0) {
    ScheduleStep post;
    for (std::uint32_t i = 0; i < rest; ++i) {
      std::vector<std::uint64_t> keys(n);
      for (std::uint32_t b = 0; b < n; ++b) keys[b] = b;
      post.transfers.push_back(Transfer{i + rest, i, TransferOp::Copy, std::move(keys)});
    }
    sched.steps.push_back(std::move(post));
  }
  return sched;
}

Schedule allgather_bruck_steps(ScheduleKind kind, std::uint32_t n) {
  // Dissemination: after step k rank r holds blocks {(r + o) mod n :
  // o < min(2^(k+1), n)}; step k ships the top min(2^k, n - 2^k) of them
  // 2^k ranks backwards.
  Schedule sched{kind, n, {}};
  for (std::uint32_t stride = 1; stride < n; stride *= 2) {
    ScheduleStep step;
    const std::uint32_t count = std::min(stride, n - stride);
    for (std::uint32_t r = 0; r < n; ++r) {
      std::vector<std::uint64_t> keys(count);
      for (std::uint32_t o = 0; o < count; ++o) keys[o] = (r + o) % n;
      std::sort(keys.begin(), keys.end());
      step.transfers.push_back(Transfer{r, (r + n - stride) % n, TransferOp::Copy,
                                        std::move(keys)});
    }
    sched.steps.push_back(std::move(step));
  }
  return sched;
}

// ---- allreduce --------------------------------------------------------------
//
// The vector is n blocks (keys 0..n-1); every rank starts holding all of
// them. Rabenseifner: reduce-scatter by recursive halving over contiguous
// block ranges, then allgather by recursive doubling; ranks beyond the
// power-of-two core fold into a neighbor before and unfold after.

Schedule allreduce_recursive_halving_doubling(std::uint32_t n) {
  Schedule sched{ScheduleKind::AllreduceRecursiveHalvingDoubling, n, {}};
  if (n == 1) return sched;
  const std::uint32_t p = floor_pow2(n);
  const std::uint32_t rest = n - p;
  // boundary(v) splits the n blocks into p near-equal contiguous ranges.
  auto boundary = [&](std::uint32_t v) -> std::uint32_t {
    return v * (n / p) + std::min(v, n % p);
  };
  auto range_keys = [&](std::uint32_t lo_v, std::uint32_t hi_v) {
    std::vector<std::uint64_t> keys;
    for (std::uint32_t b = boundary(lo_v); b < boundary(hi_v); ++b) keys.push_back(b);
    return keys;
  };
  auto full_vector = [&]() {
    std::vector<std::uint64_t> keys(n);
    for (std::uint32_t b = 0; b < n; ++b) keys[b] = b;
    return keys;
  };
  if (rest > 0) {
    ScheduleStep pre;
    for (std::uint32_t i = 0; i < rest; ++i) {
      pre.transfers.push_back(Transfer{i, i + rest, TransferOp::Reduce, full_vector()});
    }
    sched.steps.push_back(std::move(pre));
  }
  // Recursive halving over virtual ranks v = real - rest. Groups of size g
  // stay aligned (v's group starts at v & ~(g - 1)), so the partner is
  // v ^ (g / 2) and each half sends the other half's block range.
  const unsigned L = ceil_log2(p);
  for (unsigned s = 0; s < L; ++s) {
    const std::uint32_t g = p >> s;
    ScheduleStep step;
    for (std::uint32_t v = 0; v < p; ++v) {
      const std::uint32_t lo = v & ~(g - 1);
      const std::uint32_t mid = lo + g / 2;
      std::vector<std::uint64_t> keys =
          v < mid ? range_keys(mid, lo + g) : range_keys(lo, mid);
      if (keys.empty()) continue;
      step.transfers.push_back(
          Transfer{v + rest, (v ^ (g / 2)) + rest, TransferOp::Reduce, std::move(keys)});
    }
    sched.steps.push_back(std::move(step));
  }
  // Recursive doubling mirrors the halving steps in reverse: before the step
  // with group size g, v holds exactly its size-g/2 subgroup's range.
  for (unsigned s = L; s-- > 0;) {
    const std::uint32_t g = p >> s;
    ScheduleStep step;
    for (std::uint32_t v = 0; v < p; ++v) {
      const std::uint32_t sub = v & ~(g / 2 - 1);
      std::vector<std::uint64_t> keys = range_keys(sub, sub + g / 2);
      if (keys.empty()) continue;
      step.transfers.push_back(
          Transfer{v + rest, (v ^ (g / 2)) + rest, TransferOp::Copy, std::move(keys)});
    }
    sched.steps.push_back(std::move(step));
  }
  if (rest > 0) {
    ScheduleStep post;
    for (std::uint32_t i = 0; i < rest; ++i) {
      post.transfers.push_back(Transfer{i + rest, i, TransferOp::Copy, full_vector()});
    }
    sched.steps.push_back(std::move(post));
  }
  return sched;
}

Schedule allreduce_reduce_scatter_allgather(std::uint32_t n) {
  Schedule sched{ScheduleKind::AllreduceReduceScatterAllgather, n, {}};
  if (n == 1) return sched;
  // Ring reduce-scatter: at step s rank r ships block (r - s - 1) mod n one
  // rank forward with Reduce semantics — exactly the block it received last
  // step — so block b arrives fully reduced at rank b after n - 1 steps.
  for (std::uint32_t s = 0; s + 1 < n; ++s) {
    ScheduleStep step;
    for (std::uint32_t r = 0; r < n; ++r) {
      const std::uint64_t block = (r + 2u * n - s - 1) % n;
      step.transfers.push_back(Transfer{r, (r + 1) % n, TransferOp::Reduce, {block}});
    }
    sched.steps.push_back(std::move(step));
  }
  // Bruck allgather of the reduced blocks (rank b now holds exactly block b).
  Schedule gather = allgather_bruck_steps(sched.kind, n);
  for (auto& step : gather.steps) sched.steps.push_back(std::move(step));
  return sched;
}

}  // namespace

const char* schedule_kind_name(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::AllToAllBruck: return "all_to_all_bruck";
    case ScheduleKind::AllToAllPairwise: return "all_to_all_pairwise";
    case ScheduleKind::AllgatherRecursiveDoubling: return "allgather_recursive_doubling";
    case ScheduleKind::AllgatherBruck: return "allgather_bruck";
    case ScheduleKind::AllreduceRecursiveHalvingDoubling:
      return "allreduce_recursive_halving_doubling";
    case ScheduleKind::AllreduceReduceScatterAllgather:
      return "allreduce_reduce_scatter_allgather";
  }
  return "?";
}

ScheduleKind schedule_kind_from_name(const std::string& name) {
  for (ScheduleKind kind :
       {ScheduleKind::AllToAllBruck, ScheduleKind::AllToAllPairwise,
        ScheduleKind::AllgatherRecursiveDoubling, ScheduleKind::AllgatherBruck,
        ScheduleKind::AllreduceRecursiveHalvingDoubling,
        ScheduleKind::AllreduceReduceScatterAllgather}) {
    if (name == schedule_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown schedule kind \"" + name + "\"");
}

const char* transfer_op_name(TransferOp op) {
  switch (op) {
    case TransferOp::Copy: return "copy";
    case TransferOp::Move: return "move";
    case TransferOp::Reduce: return "reduce";
  }
  return "?";
}

std::uint64_t Schedule::total_sends() const {
  std::uint64_t sends = 0;
  for (const ScheduleStep& step : steps) {
    for (const Transfer& t : step.transfers) sends += t.keys.size();
  }
  return sends;
}

Schedule build_schedule(ScheduleKind kind, std::uint32_t num_ranks) {
  require_ranks(num_ranks);
  switch (kind) {
    case ScheduleKind::AllToAllBruck: return all_to_all_bruck(num_ranks);
    case ScheduleKind::AllToAllPairwise: return all_to_all_pairwise(num_ranks);
    case ScheduleKind::AllgatherRecursiveDoubling:
      return allgather_recursive_doubling(num_ranks);
    case ScheduleKind::AllgatherBruck:
      return allgather_bruck_steps(ScheduleKind::AllgatherBruck, num_ranks);
    case ScheduleKind::AllreduceRecursiveHalvingDoubling:
      return allreduce_recursive_halving_doubling(num_ranks);
    case ScheduleKind::AllreduceReduceScatterAllgather:
      return allreduce_reduce_scatter_allgather(num_ranks);
  }
  throw std::invalid_argument("build_schedule: unknown kind");
}

// ---- functional execution ---------------------------------------------------

std::vector<RankState> run_schedule_functional(const Schedule& schedule,
                                               std::vector<RankState> states) {
  if (states.size() != schedule.num_ranks) {
    throw std::invalid_argument("run_schedule_functional: state count != num_ranks");
  }
  // Scratch for one step's reads; hoisted so its capacity is reused.
  struct PendingSend {
    std::uint32_t src, dst;
    TransferOp op;
    std::uint64_t key;
    std::int64_t value;
  };
  std::vector<PendingSend> pending;
  for (std::size_t step_idx = 0; step_idx < schedule.steps.size(); ++step_idx) {
    const ScheduleStep& step = schedule.steps[step_idx];
    // Synchronous rounds: every transfer reads the sender state as of the
    // step start, so paired exchanges (recursive doubling/halving) are
    // well-defined. Reading only the sent keys up front — instead of
    // snapshotting every rank's full state — keeps the pass linear in the
    // step's send volume.
    pending.clear();
    for (const Transfer& t : step.transfers) {
      if (t.src >= states.size() || t.dst >= states.size()) {
        throw std::logic_error("schedule step " + std::to_string(step_idx) +
                               ": transfer rank out of range");
      }
      const RankState& from = states[t.src];
      for (const std::uint64_t key : t.keys) {
        const auto it = from.find(key);
        if (it == from.end()) {
          throw std::logic_error("schedule step " + std::to_string(step_idx) + ": rank " +
                                 std::to_string(t.src) + " does not hold key " +
                                 std::to_string(key) + " it is scheduled to send");
        }
        pending.push_back({t.src, t.dst, t.op, key, it->second});
      }
    }
    for (const PendingSend& p : pending) {
      switch (p.op) {
        case TransferOp::Copy:
          states[p.dst][p.key] = p.value;
          break;
        case TransferOp::Move:
          states[p.dst][p.key] = p.value;
          states[p.src].erase(p.key);
          break;
        case TransferOp::Reduce:
          states[p.dst][p.key] += p.value;
          states[p.src].erase(p.key);
          break;
      }
    }
  }
  return states;
}

namespace {

enum class CollectiveClass { AllToAll, Allgather, Allreduce };

CollectiveClass class_of(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::AllToAllBruck:
    case ScheduleKind::AllToAllPairwise:
      return CollectiveClass::AllToAll;
    case ScheduleKind::AllgatherRecursiveDoubling:
    case ScheduleKind::AllgatherBruck:
      return CollectiveClass::Allgather;
    case ScheduleKind::AllreduceRecursiveHalvingDoubling:
    case ScheduleKind::AllreduceReduceScatterAllgather:
      return CollectiveClass::Allreduce;
  }
  throw std::invalid_argument("class_of: unknown kind");
}

// Distinct deterministic payloads so a misrouted item cannot masquerade as
// the right one.
std::int64_t a2a_value(std::uint64_t i, std::uint64_t j) {
  return static_cast<std::int64_t>((i + 1) * 1000003 + j);
}
std::int64_t gather_value(std::uint64_t origin) {
  return static_cast<std::int64_t>((origin + 1) * 7919);
}
std::int64_t reduce_value(std::uint64_t rank, std::uint64_t block) {
  return static_cast<std::int64_t>((rank + 1) * (block + 17) + 3);
}

void check(bool ok, const Schedule& schedule, const std::string& what) {
  if (!ok) {
    throw std::logic_error(std::string(schedule_kind_name(schedule.kind)) + " n=" +
                           std::to_string(schedule.num_ranks) + ": " + what);
  }
}

}  // namespace

void verify_schedule_functional(const Schedule& schedule) {
  const std::uint64_t n = schedule.num_ranks;
  std::vector<RankState> states(n);
  const CollectiveClass cls = class_of(schedule.kind);
  for (std::uint64_t r = 0; r < n; ++r) {
    switch (cls) {
      case CollectiveClass::AllToAll:
        for (std::uint64_t j = 0; j < n; ++j) states[r][r * n + j] = a2a_value(r, j);
        break;
      case CollectiveClass::Allgather:
        states[r][r] = gather_value(r);
        break;
      case CollectiveClass::Allreduce:
        for (std::uint64_t b = 0; b < n; ++b) states[r][b] = reduce_value(r, b);
        break;
    }
  }
  states = run_schedule_functional(schedule, std::move(states));
  for (std::uint64_t r = 0; r < n; ++r) {
    const RankState& got = states[r];
    check(got.size() == n, schedule,
          "rank " + std::to_string(r) + " ends with " + std::to_string(got.size()) +
              " items, want " + std::to_string(n));
    for (std::uint64_t o = 0; o < n; ++o) {
      std::uint64_t key = 0;
      std::int64_t want = 0;
      switch (cls) {
        case CollectiveClass::AllToAll:
          key = o * n + r;  // item origin o destined for this rank
          want = a2a_value(o, r);
          break;
        case CollectiveClass::Allgather:
          key = o;
          want = gather_value(o);
          break;
        case CollectiveClass::Allreduce: {
          key = o;  // block o, fully reduced
          std::int64_t sum = 0;
          for (std::uint64_t src = 0; src < n; ++src) sum += reduce_value(src, o);
          want = sum;
          break;
        }
      }
      const auto it = got.find(key);
      check(it != got.end(), schedule,
            "rank " + std::to_string(r) + " is missing key " + std::to_string(key));
      check(it->second == want, schedule,
            "rank " + std::to_string(r) + " key " + std::to_string(key) + " = " +
                std::to_string(it->second) + ", want " + std::to_string(want));
    }
  }
}

// ---- operational execution --------------------------------------------------

ScheduleRunResult execute_schedule(PacketSimulator& sim, const Schedule& schedule,
                                   const std::vector<NodeId>& rank_to_logical,
                                   std::uint64_t max_cycles_per_step) {
  if (rank_to_logical.size() != schedule.num_ranks) {
    throw std::invalid_argument("execute_schedule: rank map size != num_ranks");
  }
  ScheduleRunResult result;
  result.rounds = schedule.rounds();
  std::vector<Packet> packets;
  for (const ScheduleStep& step : schedule.steps) {
    packets.clear();
    std::uint64_t id = 0;
    for (const Transfer& t : step.transfers) {
      const NodeId src = rank_to_logical[t.src];
      const NodeId dst = rank_to_logical[t.dst];
      for (std::size_t k = 0; k < t.keys.size(); ++k) {
        packets.push_back(Packet{id++, src, dst, 0});
      }
    }
    if (packets.empty()) continue;
    const SimStats stats = sim.run(packets, max_cycles_per_step);
    result.total_cycles += stats.cycles;
    result.total_hop_cycles += stats.total_hops;
    result.max_link_congestion = std::max(result.max_link_congestion, stats.max_queue_depth);
    result.logical_sends += stats.injected;
    result.delivered += stats.delivered;
    result.undeliverable += stats.undeliverable;
    result.timed_out += stats.timed_out;
  }
  return result;
}

ScheduleRunResult execute_schedule(const Machine& machine, const Graph& target,
                                   const Schedule& schedule,
                                   const std::vector<NodeId>& rank_to_logical,
                                   const ScheduleRunOptions& options) {
  PacketSimulator sim(machine, target, options.router);
  return execute_schedule(sim, schedule, rank_to_logical, options.max_cycles_per_step);
}

CollectiveRunResult execute_collective(const Machine& machine, const Graph& target,
                                       ScheduleKind kind, const ScheduleRunOptions& options) {
  CollectiveRunResult result;
  for (NodeId l = 0; l < machine.num_logical(); ++l) {
    if (!machine.dead[machine.to_physical[l]]) result.participants.push_back(l);
  }
  if (result.participants.empty()) {
    throw std::invalid_argument("execute_collective: no live logical node");
  }
  const Schedule schedule =
      build_schedule(kind, static_cast<std::uint32_t>(result.participants.size()));
  result.run = execute_schedule(machine, target, schedule, result.participants, options);
  return result;
}

}  // namespace ftdb::sim
