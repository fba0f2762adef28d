#include "sim/schedule.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace ftdb::sim {

namespace {

// ceil(log2 n) for n >= 1.
unsigned ceil_log2(std::uint32_t n) { return static_cast<unsigned>(std::bit_width(n - 1)); }

using Keys = std::vector<std::uint64_t>;

// Every kind below is a function of (n, step, rank). When `keys` is given it
// also lists the item keys the send carries; only the functional executor
// asks for them, the engine needs the count alone.

void add_range(Keys* keys, std::uint64_t lo, std::uint64_t hi) {
  if (keys == nullptr) return;
  for (std::uint64_t k = lo; k < hi; ++k) keys->push_back(k);
}

// ---- all-to-all -------------------------------------------------------------
//
// Item keys are i * n + j (origin i, final destination j). The Bruck variant
// moves item (i, j) through the binary expansion of its displacement
// d = (j - i) mod n: after bits 0..k-1 are processed the item sits at rank
// (i + (d mod 2^k)) mod n, and bit k (when set) ships it 2^k ranks forward.
// So at step k every rank sends one item per d < n with bit k set.

Send all_to_all_bruck(std::uint32_t n, std::size_t step, std::uint32_t r, Keys* keys) {
  const std::uint32_t stride = std::uint32_t{1} << step;
  // Each whole period of 2 * stride displacements has stride of them with
  // bit k set; the partial last period has max(rest - stride, 0).
  const std::uint64_t period = 2 * std::uint64_t{stride};
  const auto count = static_cast<std::uint32_t>(
      n / period * stride + std::max<std::uint64_t>(n % period, stride) - stride);
  if (keys != nullptr) {
    for (std::uint32_t d = stride; d < n; ++d) {
      if ((d & stride) == 0) continue;
      const std::uint32_t i = (r + n - (d & (stride - 1))) % n;
      keys->push_back(std::uint64_t{i} * n + (i + d) % n);
    }
  }
  return {(r + stride) % n, TransferOp::Move, count};
}

Send all_to_all_pairwise(std::uint32_t n, std::size_t step, std::uint32_t r, Keys* keys) {
  // XOR partners give a perfect pairing when n is a power of two; a ring
  // offset keeps every rank busy every round otherwise.
  const auto s = static_cast<std::uint32_t>(step + 1);
  const std::uint32_t peer = std::has_single_bit(n) ? (r ^ s) : (r + s) % n;
  if (keys != nullptr) keys->push_back(std::uint64_t{r} * n + peer);
  return {peer, TransferOp::Move, 1};
}

// ---- allgather --------------------------------------------------------------
//
// Block keys are the origin ranks 0..n-1; rank r starts holding block r.
// Recursive doubling runs on the p = 2^floor(log2 n) core ranks rest..n-1
// (virtual ranks v = real - rest); ranks 0..rest-1 first fold their block
// into rank + rest and finally get the whole vector back from it.

Send allgather_recursive_doubling(std::uint32_t n, std::size_t step, std::uint32_t r,
                                  Keys* keys) {
  const std::uint32_t rest = n - std::bit_floor(n);
  if (rest > 0 && step == 0) {
    if (r >= rest) return {};
    add_range(keys, r, r + 1);
    return {r + rest, TransferOp::Copy, 1};
  }
  const std::size_t core = step - (rest > 0 ? 1 : 0);
  if (core == ceil_log2(n - rest)) {
    if (r < rest || r >= 2 * rest) return {};
    add_range(keys, 0, n);
    return {r - rest, TransferOp::Copy, n};
  }
  if (r < rest) return {};
  // Before the step with stride s, v holds the blocks of its aligned size-s
  // group: block u + rest of every member u, and block u of every member
  // that absorbed a folded rank (u < rest).
  const std::uint32_t v = r - rest;
  const std::uint32_t stride = std::uint32_t{1} << core;
  const std::uint32_t lo = v & ~(stride - 1);
  if (keys != nullptr) {
    for (std::uint32_t u = lo; u < lo + stride; ++u) {
      keys->push_back(u + rest);
      if (u < rest) keys->push_back(u);
    }
  }
  const std::uint32_t folded = lo < rest ? std::min(rest - lo, stride) : 0;
  return {(v ^ stride) + rest, TransferOp::Copy, stride + folded};
}

Send allgather_bruck(std::uint32_t n, std::size_t step, std::uint32_t r, Keys* keys) {
  // Dissemination: after step k rank r holds blocks {(r + o) mod n :
  // o < min(2^(k+1), n)}; step k ships the first min(2^k, n - 2^k) of them
  // 2^k ranks backwards.
  const std::uint32_t stride = std::uint32_t{1} << step;
  const std::uint32_t count = std::min(stride, n - stride);
  if (keys != nullptr) {
    for (std::uint32_t o = 0; o < count; ++o) keys->push_back((std::uint64_t{r} + o) % n);
  }
  return {(r + n - stride) % n, TransferOp::Copy, count};
}

// ---- allreduce --------------------------------------------------------------
//
// The vector is n blocks (keys 0..n-1); every rank starts holding all of
// them. Rabenseifner: reduce-scatter by recursive halving over contiguous
// block ranges, then allgather by recursive doubling; ranks beyond the
// power-of-two core fold into a neighbor before and unfold after.

Send allreduce_recursive_halving_doubling(std::uint32_t n, std::size_t step, std::uint32_t r,
                                          Keys* keys) {
  const std::uint32_t p = std::bit_floor(n);
  const std::uint32_t rest = n - p;
  const std::size_t levels = ceil_log2(p);
  // boundary(v) splits the n blocks into p near-equal contiguous ranges;
  // virtual ranks [lo_v, hi_v) own blocks [boundary(lo_v), boundary(hi_v)).
  const auto boundary = [&](std::uint32_t v) { return v * (n / p) + std::min(v, n % p); };
  const auto ranges = [&](std::uint32_t peer, TransferOp op, std::uint32_t lo_v,
                          std::uint32_t hi_v) {
    add_range(keys, boundary(lo_v), boundary(hi_v));
    return Send{peer, op, boundary(hi_v) - boundary(lo_v)};
  };
  if (rest > 0 && step == 0) {
    return r < rest ? ranges(r + rest, TransferOp::Reduce, 0, p) : Send{};
  }
  const std::size_t core = step - (rest > 0 ? 1 : 0);
  if (core == 2 * levels) {
    return r >= rest && r < 2 * rest ? ranges(r - rest, TransferOp::Copy, 0, p) : Send{};
  }
  if (r < rest) return {};
  const std::uint32_t v = r - rest;
  if (core < levels) {
    // Recursive halving. Groups of size g stay aligned (v's group starts at
    // v & ~(g - 1)), so the partner is v ^ (g / 2) and each half sends the
    // other half's block range.
    const std::uint32_t g = p >> core;
    const std::uint32_t lo = v & ~(g - 1);
    const std::uint32_t mid = lo + g / 2;
    const std::uint32_t peer = (v ^ (g / 2)) + rest;
    return v < mid ? ranges(peer, TransferOp::Reduce, mid, lo + g)
                   : ranges(peer, TransferOp::Reduce, lo, mid);
  }
  // Recursive doubling mirrors the halving steps in reverse: before the step
  // with group size g, v holds exactly its size-g/2 subgroup's range.
  const std::uint32_t g = p >> (2 * levels - 1 - core);
  const std::uint32_t sub = v & ~(g / 2 - 1);
  return ranges((v ^ (g / 2)) + rest, TransferOp::Copy, sub, sub + g / 2);
}

Send allreduce_reduce_scatter_allgather(std::uint32_t n, std::size_t step, std::uint32_t r,
                                        Keys* keys) {
  // Ring reduce-scatter: at step s rank r ships block (r - s - 1) mod n one
  // rank forward with Reduce semantics — exactly the block it received last
  // step — so block b arrives fully reduced at rank b after n - 1 steps.
  if (step + 1 < n) {
    const std::uint64_t block = (std::uint64_t{r} + 2 * std::uint64_t{n} - step - 1) % n;
    add_range(keys, block, block + 1);
    return {(r + 1) % n, TransferOp::Reduce, 1};
  }
  // Then a Bruck allgather of the reduced blocks (rank b holds exactly block b).
  return allgather_bruck(n, step - (n - 1), r, keys);
}

Send plan(const Schedule& schedule, std::size_t step, std::uint32_t rank, Keys* keys) {
  const std::uint32_t n = schedule.num_ranks;
  switch (schedule.kind) {
    case ScheduleKind::AllToAllBruck: return all_to_all_bruck(n, step, rank, keys);
    case ScheduleKind::AllToAllPairwise: return all_to_all_pairwise(n, step, rank, keys);
    case ScheduleKind::AllgatherRecursiveDoubling:
      return allgather_recursive_doubling(n, step, rank, keys);
    case ScheduleKind::AllgatherBruck: return allgather_bruck(n, step, rank, keys);
    case ScheduleKind::AllreduceRecursiveHalvingDoubling:
      return allreduce_recursive_halving_doubling(n, step, rank, keys);
    case ScheduleKind::AllreduceReduceScatterAllgather:
      return allreduce_reduce_scatter_allgather(n, step, rank, keys);
  }
  throw std::invalid_argument("schedule: unknown kind");
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

std::size_t Schedule::rounds() const {
  const std::uint32_t n = num_ranks;
  if (n < 2) return 0;
  const std::size_t core = ceil_log2(std::bit_floor(n));
  const std::size_t folds = std::has_single_bit(n) ? 0 : 2;  // pre/post neighbor rounds
  switch (kind) {
    case ScheduleKind::AllToAllBruck:
    case ScheduleKind::AllgatherBruck: return ceil_log2(n);
    case ScheduleKind::AllToAllPairwise: return n - 1;
    case ScheduleKind::AllgatherRecursiveDoubling: return core + folds;
    case ScheduleKind::AllreduceRecursiveHalvingDoubling: return 2 * core + folds;
    case ScheduleKind::AllreduceReduceScatterAllgather: return n - 1 + ceil_log2(n);
  }
  throw std::invalid_argument("schedule: unknown kind");
}

std::uint64_t Schedule::total_sends() const {
  std::uint64_t sends = 0;
  for (std::size_t step = 0; step < rounds(); ++step) {
    for (std::uint32_t r = 0; r < num_ranks; ++r) sends += send(step, r).count;
  }
  return sends;
}

Send Schedule::send(std::size_t step, std::uint32_t rank) const {
  return plan(*this, step, rank, nullptr);
}

Schedule build_schedule(ScheduleKind kind, std::uint32_t num_ranks) {
  if (num_ranks == 0) throw std::invalid_argument("build_schedule: num_ranks must be >= 1");
  return Schedule{kind, num_ranks};
}

// ---- functional execution ---------------------------------------------------

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

}  // namespace

FunctionalState run_schedule_functional(const Schedule& schedule, FunctionalState state) {
  const std::uint64_t n = schedule.num_ranks;
  if (state.holder.size() != n * n || state.value.size() != n * n) {
    throw std::invalid_argument("run_schedule_functional: state is not num_ranks^2 cells");
  }
  // An all-to-all item keeps its cell wherever it travels; a block has one
  // cell per rank.
  const bool all_to_all = class_of(schedule.kind) == CollectiveClass::AllToAll;
  const auto cell = [&](std::uint64_t rank, std::uint64_t key) {
    return all_to_all ? key : rank * n + key;
  };
  // Scratch for one step's reads; hoisted so its capacity is reused.
  struct PendingSend {
    std::uint32_t src, dst;
    TransferOp op;
    std::uint64_t key;
    std::int64_t value;
  };
  std::vector<PendingSend> pending;
  Keys keys;
  for (std::size_t step = 0; step < schedule.rounds(); ++step) {
    // Synchronous rounds: every send reads the sender state as of the step
    // start, so paired exchanges (recursive doubling/halving) are
    // well-defined.
    pending.clear();
    for (std::uint32_t r = 0; r < n; ++r) {
      keys.clear();
      const Send send = plan(schedule, step, r, &keys);
      for (const std::uint64_t key : keys) {
        const std::uint64_t from = cell(r, key);
        if (state.holder[from] != r) {
          throw std::logic_error("schedule step " + std::to_string(step) + ": rank " +
                                 std::to_string(r) + " does not hold key " +
                                 std::to_string(key) + " it is scheduled to send");
        }
        pending.push_back({r, send.peer, send.op, key, state.value[from]});
      }
    }
    for (const PendingSend& p : pending) {
      if (p.op != TransferOp::Copy) state.holder[cell(p.src, p.key)] = FunctionalState::kNobody;
      const std::uint64_t to = cell(p.dst, p.key);
      const bool add = p.op == TransferOp::Reduce && state.holder[to] == p.dst;
      state.value[to] = add ? state.value[to] + p.value : p.value;
      state.holder[to] = p.dst;
    }
  }
  return state;
}

namespace {

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
  const CollectiveClass cls = class_of(schedule.kind);
  // Rank r starts holding row r: all-to-all items (r, j), its own allgather
  // block, or its whole allreduce vector.
  FunctionalState state{std::vector<std::uint32_t>(n * n, FunctionalState::kNobody),
                        std::vector<std::int64_t>(n * n, 0)};
  std::vector<std::int64_t> block_sums(n, 0);
  for (std::uint64_t r = 0; r < n; ++r) {
    for (std::uint64_t b = 0; b < n; ++b) {
      if (cls == CollectiveClass::Allgather && b != r) continue;
      state.holder[r * n + b] = static_cast<std::uint32_t>(r);
      switch (cls) {
        case CollectiveClass::AllToAll: state.value[r * n + b] = a2a_value(r, b); break;
        case CollectiveClass::Allgather: state.value[r * n + b] = gather_value(r); break;
        case CollectiveClass::Allreduce:
          state.value[r * n + b] = reduce_value(r, b);
          block_sums[b] += reduce_value(r, b);
          break;
      }
    }
  }
  state = run_schedule_functional(schedule, std::move(state));
  std::vector<std::uint64_t> held(n, 0);
  for (const std::uint32_t h : state.holder) {
    if (h != FunctionalState::kNobody) ++held[h];
  }
  for (std::uint64_t r = 0; r < n; ++r) {
    check(held[r] == n, schedule,
          "rank " + std::to_string(r) + " ends with " + std::to_string(held[r]) +
              " items, want " + std::to_string(n));
    for (std::uint64_t o = 0; o < n; ++o) {
      // All-to-all: item (o, r), destined for this rank; otherwise block o.
      const std::uint64_t key = cls == CollectiveClass::AllToAll ? o * n + r : o;
      const std::uint64_t at = cls == CollectiveClass::AllToAll ? key : r * n + o;
      const std::int64_t want = cls == CollectiveClass::AllToAll    ? a2a_value(o, r)
                                : cls == CollectiveClass::Allgather ? gather_value(o)
                                                                    : block_sums[o];
      check(state.holder[at] == r, schedule,
            "rank " + std::to_string(r) + " is missing key " + std::to_string(key));
      check(state.value[at] == want, schedule,
            "rank " + std::to_string(r) + " key " + std::to_string(key) + " = " +
                std::to_string(state.value[at]) + ", want " + std::to_string(want));
    }
  }
}

// ---- operational execution --------------------------------------------------

namespace {

void require_rank_map(const Schedule& schedule, const std::vector<NodeId>& rank_to_logical) {
  if (rank_to_logical.size() != schedule.num_ranks) {
    throw std::invalid_argument("execute_schedule: rank map size != num_ranks");
  }
}

}  // namespace

void schedule_step_packets(const Schedule& schedule, std::size_t step,
                           const std::vector<NodeId>& rank_to_logical,
                           std::vector<Packet>& packets) {
  require_rank_map(schedule, rank_to_logical);
  packets.clear();
  std::uint64_t id = 0;
  for (std::uint32_t r = 0; r < schedule.num_ranks; ++r) {
    const Send send = schedule.send(step, r);
    for (std::uint32_t k = 0; k < send.count; ++k) {
      packets.push_back(Packet{id++, rank_to_logical[r], rank_to_logical[send.peer], 0});
    }
  }
}

ScheduleRunResult execute_schedule(PacketSimulator& sim, const Schedule& schedule,
                                   const std::vector<NodeId>& rank_to_logical,
                                   std::uint64_t max_cycles_per_step) {
  require_rank_map(schedule, rank_to_logical);
  ScheduleRunResult result;
  result.rounds = schedule.rounds();
  std::vector<Packet> packets;
  for (std::size_t step = 0; step < result.rounds; ++step) {
    schedule_step_packets(schedule, step, rank_to_logical, packets);
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
