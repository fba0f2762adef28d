// The campaign execution engine.
//
// Every (scenario, 256-trial block) pair of the whole grid is one work unit.
// All units feed one work-stealing scheduler: each worker owns a deque seeded
// with a deterministic contiguous slice of the units, pops its own work from
// the front, and steals from the back of a sibling's deque when it runs dry —
// so one slow cell no longer serializes the grid tail. Every trial's randomness is
// counter-based — TrialRng::for_trial(seed, scenario, trial) — and per-block
// partial statistics are merged *in block order* per cell (an out-of-order
// block parks in a pending map until its predecessors land), so the result is
// byte-identical for any thread count and any steal schedule. Statistics
// stream through Welford accumulators (no per-trial storage), success rates
// carry Wilson score intervals, and fault-count survival curves are recorded
// per scenario.
//
// Long campaigns checkpoint at *block* granularity: the checkpoint stores,
// per cell, the merged prefix of completed blocks plus any completed
// out-of-prefix blocks, so a crash replays at most the blocks in flight (256
// trials each), not a whole cell. --resume loads the checkpoint and, because
// trials are counter-based, finishes with exactly the report an uninterrupted
// run would have produced.
//
// Sharding scales the same campaign across machines: shard i/n runs only the
// cells it owns (round-robin by cell index) and writes a mergeable partial
// checkpoint; merge_checkpoints (report.hpp) fuses the partials into a report
// byte-identical to a single-machine run.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bench_json.hpp"
#include "campaign/scenario.hpp"

namespace ftdb::campaign {

/// Trials per work unit. Fixed — the block partition is part of the
/// deterministic reduction order, so it must not depend on the thread count,
/// the shard layout, or the steal schedule.
inline constexpr std::uint64_t kTrialBlock = 256;

/// Blocks a cell of `trials` trials decomposes into (the last may be short).
inline constexpr std::uint64_t num_trial_blocks(std::uint64_t trials) {
  return (trials + kTrialBlock - 1) / kTrialBlock;
}

/// Trials covered by blocks [0, blocks) of a `trials`-trial cell.
inline constexpr std::uint64_t trials_in_prefix(std::uint64_t trials, std::uint64_t blocks) {
  const std::uint64_t t = blocks * kTrialBlock;
  return t < trials ? t : trials;
}

/// Trials inside block `block` of a `trials`-trial cell (the last block may
/// be short).
inline constexpr std::uint64_t trials_in_block(std::uint64_t trials, std::uint64_t block) {
  const std::uint64_t lo = block * kTrialBlock;
  const std::uint64_t hi = lo + kTrialBlock < trials ? lo + kTrialBlock : trials;
  return hi - lo;
}

/// Welford/Chan streaming moments with min/max. Deterministic under the
/// runner's fixed block partition + in-order merge.
struct StreamingStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void add(double x);
  void merge(const StreamingStats& other);
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
};

/// Wilson score interval for a binomial proportion (default z: 95%).
struct WilsonInterval {
  double lo = 0.0;
  double hi = 1.0;
};
WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z = 1.959963984540054);

/// One point of a scenario's empirical survival curve: of the trials that
/// drew exactly `faults` faults, how many reconfigured successfully.
struct SurvivalPoint {
  std::uint64_t faults = 0;
  std::uint64_t trials = 0;
  std::uint64_t survived = 0;
};

/// One point of the collective slowdown curve: over the trials that drew
/// exactly `faults` faults, the summed completion-time slowdown of the
/// collective schedule (relative to the healthy baseline) across the trials
/// where it completed, plus how many trials could not complete it at all.
/// The sum (not the mean) is stored so block partials merge exactly.
struct SlowdownPoint {
  std::uint64_t faults = 0;
  std::uint64_t trials = 0;        ///< trials at this fault count that ran the collective
  std::uint64_t unreachable = 0;   ///< of those, runs with undeliverable/timed-out sends
  double slowdown_sum = 0.0;       ///< sum over the (trials - unreachable) completed runs

  double mean_slowdown() const {
    const std::uint64_t done = trials - unreachable;
    return done == 0 ? 0.0 : slowdown_sum / static_cast<double>(done);
  }
};

/// Everything measured for one grid cell.
struct ScenarioResult {
  std::size_t scenario_index = 0;
  std::string label;
  std::uint64_t target_nodes = 0;   ///< N
  std::uint64_t fabric_nodes = 0;   ///< N + k (bus machine: node count of the fabric)
  std::uint32_t target_diameter = 0;

  std::uint64_t trials = 0;
  std::uint64_t reconfig_success = 0;  ///< monotone embedding survived the draw
  std::uint64_t over_budget = 0;       ///< trials that drew more than k faults
  StreamingStats fault_count;          ///< faults per trial

  // diameter metric --------------------------------------------------------
  /// Diameter of the live logical graph on successful trials — the paper
  /// says this must equal target_diameter, and here it is measured, not
  /// assumed.
  StreamingStats reconfigured_diameter;
  /// Diameter of the survivor-induced fabric subgraph on failed trials
  /// (finite values only)...
  StreamingStats degraded_diameter;
  /// ...and how many failed trials left the survivors disconnected.
  std::uint64_t degraded_disconnected = 0;

  // stretch metric (point-to-point families: de Bruijn + shuffle-exchange) --
  StreamingStats route_stretch;

  // mttf metric -------------------------------------------------------------
  /// Time of the (k+1)-st failure per trial (finite draws only).
  StreamingStats mttf;
  std::uint64_t mttf_censored = 0;  ///< trials whose model never exhausts the spares

  // collective metric (point-to-point families only) -----------------------
  /// Rounds of the schedule on the full target (set at cell finalization).
  std::uint64_t collective_rounds = 0;
  /// Completion cycles of the schedule on the healthy machine — the
  /// denominator of every per-trial slowdown (set at cell finalization).
  std::uint64_t collective_baseline_cycles = 0;
  /// Per-trial completion-time slowdown of the collective (trials whose
  /// collective completed). Successful trials run the full-N schedule on
  /// the reconfigured machine against the cell baseline — dilation-1 lands at
  /// exactly 1.0 (a machine that presents the target takes the baseline run
  /// itself, which the engine reproduces exactly). Failed trials run the
  /// survivors' schedule on the degraded target against the same schedule
  /// on the *healthy* target, so the ratio measures pure
  /// rerouting/congestion cost, not the smaller job.
  StreamingStats collective_slowdown;
  /// Per-trial total hop-cycles and max per-link congestion of the run.
  StreamingStats collective_hop_cycles;
  StreamingStats collective_congestion;
  /// Trials whose machine could not complete the collective (survivors
  /// disconnected or all participants dead).
  std::uint64_t collective_unreachable = 0;

  // bus-fault models (bus_iid / bus_clustered) ------------------------------
  /// Buses drawn faulty per trial. Only populated for bus-fault-model cells;
  /// on bus-family cells these draws are resolved onto the realized graph
  /// through ft::resolve_bus_faults.
  StreamingStats bus_fault_count;

  // traffic metric (point-to-point families only) ---------------------------
  /// Fraction of injected packets delivered per trial (successful trials run
  /// on the reconfigured machine, failed ones on the degraded bare target).
  StreamingStats traffic_delivered;
  /// Mean in-network latency of the delivered packets, per trial.
  StreamingStats traffic_latency;
  /// Peak queue depth across nodes, per trial — the congestion the skewed
  /// destination distributions exist to create.
  StreamingStats traffic_congestion;
  /// Total packets that timed out in flight across all trials.
  std::uint64_t traffic_timed_out = 0;

  /// Empirical survival curve by drawn fault count (sorted by faults).
  std::vector<SurvivalPoint> survival_curve;
  /// Collective slowdown by drawn fault count (sorted by faults; empty unless
  /// the collective metric ran).
  std::vector<SlowdownPoint> slowdown_curve;

  // analytic companions (iid model only; NaN otherwise) ---------------------
  double analytic_survival = std::numeric_limits<double>::quiet_NaN();
  double analytic_mttf = std::numeric_limits<double>::quiet_NaN();

  double success_rate() const;
  WilsonInterval success_ci(double z = 1.959963984540054) const;

  /// Merges a same-scenario partial (used block-by-block by the runner).
  void merge(const ScenarioResult& other);
};

/// One row of the accumulator table: every counter and StreamingStats member
/// of ScenarioResult, in report key order. merge, the JSON writer and parser
/// and the report validator are loops over this table, so a new streaming
/// metric is one member, one row, and the run_trial code that feeds it.
struct ResultField {
  enum class Kind {
    Counter,       ///< summed on merge
    Stats,         ///< StreamingStats, Chan-merged
    CellConstant,  ///< set once when the cell is finalized; merge leaves it alone
  };
  const char* key;
  Kind kind;
  std::uint64_t ScenarioResult::*counter = nullptr;  ///< Counter / CellConstant rows
  StreamingStats ScenarioResult::*stats = nullptr;   ///< Stats rows
};

/// The table, in the key order write_scenario_result emits.
std::span<const ResultField> result_fields();

struct CampaignOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  unsigned threads = 0;
  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Minimum seconds between checkpoint writes (0 = after every completed
  /// block — the tightest crash-replay bound).
  double checkpoint_every_seconds = 0.0;
  /// Load checkpoint_path (if it exists) and skip its completed blocks.
  bool resume = false;
  /// Run only the cells this shard owns (see ShardSpec). The checkpoint then
  /// carries the shard stamp and is a merge_checkpoints input.
  ShardSpec shard;
  /// Test/CI hook simulating a mid-campaign crash: once this many blocks have
  /// completed, stop scheduling work, write a final checkpoint, and throw
  /// CampaignAborted. 0 disables.
  std::uint64_t stop_after_blocks = 0;
  /// Optional sink for one progress line per completed scenario.
  std::ostream* progress = nullptr;
};

struct CampaignResult {
  ScenarioSpec spec;
  ShardSpec shard;                        ///< which slice this run executed
  std::vector<ScenarioResult> scenarios;  ///< in grid order; unowned cells stay empty
  std::uint64_t resumed_scenarios = 0;    ///< cells fully loaded from the checkpoint
  std::uint64_t resumed_blocks = 0;       ///< blocks skipped thanks to the checkpoint
};

/// Thrown by run_campaign when options.stop_after_blocks fired. The final
/// checkpoint (when a checkpoint path is set) is written *before* the throw,
/// so the campaign is resumable from exactly this point.
struct CampaignAborted : std::runtime_error {
  explicit CampaignAborted(std::uint64_t blocks)
      : std::runtime_error("campaign: stopped after " + std::to_string(blocks) +
                           " blocks (stop_after_blocks hook)"),
        blocks_completed(blocks) {}
  std::uint64_t blocks_completed = 0;
};

/// Runs the whole campaign (or one shard of it). Throws std::runtime_error on
/// unusable specs or an incompatible checkpoint, CampaignAborted when the
/// stop_after_blocks hook fires.
CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options = {});

/// The part of a cell's context that depends only on its topology and the
/// spec's metrics: the target graph, its diameter and the collective's
/// healthy baseline. Defined in runner.cpp.
struct TopologyTarget;

/// The targets of one call's cells, one per distinct topology, each built on
/// first use and shared by every cell of that topology. A table lives inside
/// one call (run_campaign, an elastic merge or compaction); nothing is cached
/// across calls. Safe to use from many threads.
class TargetTable {
 public:
  /// `cells` are the cells this call may build runners for; each counts
  /// towards its topology's release().
  TargetTable(const ScenarioSpec& spec, std::span<const ScenarioCase> cells);
  ~TargetTable();
  TargetTable(const TargetTable&) = delete;
  TargetTable& operator=(const TargetTable&) = delete;

  /// The shared target of `cell`'s topology, built on first use.
  std::shared_ptr<const TopologyTarget> acquire(const ScenarioCase& cell);

  /// Marks `cell` finalized. The table drops its topology's target once
  /// every counted cell of the topology has been released (runners still
  /// holding it keep it alive).
  void release(const ScenarioCase& cell);

 private:
  struct Entry;
  Entry& entry(const ScenarioCase& cell) const;

  MetricSet metrics_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;  // by TopologySpec::label()
};

/// Executes one grid cell's trial blocks outside the full scheduler — the
/// unit the elastic campaign service (campaign/elastic/) leases and runs.
/// The scenario context (graphs, fault model, collective baseline, and the
/// pairwise proof that every within-budget draw survives) is built once in
/// the constructor; run_block only reads it, so one CellRunner can serve many
/// threads concurrently. Blocks produced here are bit-identical to the ones
/// run_campaign's scheduler folds, because every trial's randomness is
/// counter-based.
class CellRunner {
 public:
  /// Builds the cell's own target.
  CellRunner(const ScenarioSpec& spec, const ScenarioCase& cell);
  /// Shares the target of the cell's topology through `targets`.
  CellRunner(const ScenarioSpec& spec, const ScenarioCase& cell, TargetTable& targets);
  ~CellRunner();
  CellRunner(CellRunner&&) noexcept;
  CellRunner& operator=(CellRunner&&) noexcept;

  std::uint64_t num_blocks() const;

  /// Runs block `block` (kTrialBlock trials; the last block may be short) and
  /// returns its partial accumulator — exactly what the scheduler would merge.
  ScenarioResult run_block(std::uint64_t block) const;

  /// Fills the cell-level metadata and analytic companions on a fully-merged
  /// accumulator (the step that finalizes a completed cell for reporting).
  void finalize(ScenarioResult& r) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --- checkpoint / result serialization (shared with report.cpp) ------------

/// Writes one ScenarioResult as a JSON object (all raw accumulator fields;
/// round-trips exactly through parse_scenario_result — the %.17g doubles the
/// writer emits reparse to the same bits).
void write_scenario_result(analysis::JsonWriter& w, const ScenarioResult& r);
ScenarioResult parse_scenario_result(const analysis::JsonValue& obj);

/// One cell's progress inside a checkpoint: blocks [0, prefix_blocks) merged
/// into `prefix` (finalized — labels and analytic columns filled — exactly
/// when the cell is complete), plus any completed blocks past the prefix that
/// were waiting on a predecessor when the snapshot was taken.
struct CellProgress {
  std::size_t scenario_index = 0;
  std::uint64_t prefix_blocks = 0;
  ScenarioResult prefix;
  std::vector<std::pair<std::uint64_t, ScenarioResult>> extra;  ///< sorted by block
};

/// Throws std::runtime_error (prefixed with `where`) unless `cp` fits a cell
/// of `trials` trials: the prefix holds at most every block and exactly the
/// trials of its blocks, and each extra block lies past the prefix, inside
/// the cell, with exactly one block's trials.
void check_cell_progress(const CellProgress& cp, std::uint64_t trials, const std::string& where);

/// "ftdb-campaign-checkpoint-v2": block-granular progress of one shard.
struct Checkpoint {
  std::uint64_t fingerprint = 0;        ///< spec_fingerprint of the producing spec
  std::uint64_t shard_stamp = 0;        ///< shard_fingerprint(spec, shard)
  ShardSpec shard;
  std::vector<CellProgress> cells;      ///< sorted by scenario_index
};

std::string checkpoint_to_json(const ScenarioSpec& spec, const Checkpoint& ckpt);

/// Parses a checkpoint document; throws std::runtime_error when malformed or
/// when the trial-block size it was produced with differs from kTrialBlock.
Checkpoint parse_checkpoint(const std::string& json_text);

// --- whole-file I/O (shared with campaign/elastic/) ----------------------------

/// The file's bytes; throws std::runtime_error when it cannot be read.
std::string read_text_file(const std::string& path);

/// Writes `path` through a temp file and rename(2), so readers see either
/// the old bytes or the complete new ones, never a torn mix. With `fsync`,
/// the data and the rename are also flushed to stable storage.
void write_file_atomically(const std::string& path, const std::string& text, bool fsync);

}  // namespace ftdb::campaign
