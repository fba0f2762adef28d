// Elastic campaign service: workers join and leave a running campaign at
// will, coordinating only through a shared checkpoint directory.
//
// Directory layout (everything under one `--elastic DIR`):
//
//   spec.json            canonical spec echo, written atomically by the first
//                        worker; joiners verify its fingerprint against their
//                        own spec before touching anything else
//   leases/cell-<i>.lease   one lease per grid cell (campaign/elastic/lease.hpp)
//   leases/compact.lease    serializes checkpoint compaction
//   logs/<worker>.blk    per-worker append-only block log
//                        (campaign/elastic/blocklog.hpp)
//   compacted.ckpt       "ftdb-campaign-checkpoint-v2" snapshot the logs fold
//                        into; crash replay is bounded by the blocks appended
//                        since the last compaction
//
// Workers lease whole cells — expensive cells first, by predicted_cell_cost,
// so the campaign's tail stays short — run the cell's not-yet-durable trial
// blocks, and append each block to their own log before anything references
// it. A worker that dies mid-cell leaves its lease behind; the next claimant
// reclaims it after the TTL and re-runs only the blocks the dead worker
// never made durable. Because every trial's randomness is counter-based,
// any block double-computed in a lease race is byte-identical, and merges
// dedupe on (cell, block) — so the final report of any elastic history is
// byte-identical to a serial run of the same spec.
//
// A static split is the same worker restricted to its cells: `--shard I/N`
// leases only the cells ShardSpec::owns and stops once they are durable.
// Shards may share one directory or, on machines without shared storage,
// each use its own; the merge reads any number of directories of one spec.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/elastic/blocklog.hpp"
#include "campaign/runner.hpp"

namespace ftdb::campaign::elastic {

struct ElasticOptions {
  std::string dir;        ///< shared checkpoint directory (required)
  std::string worker_id;  ///< unique per worker; empty = "<host>-<pid>"
  /// Threads running trial blocks inside a leased cell; 0 = hardware.
  unsigned threads = 0;
  /// Lease staleness horizon. A worker heartbeats at ttl/3; a lease whose
  /// heartbeat is older than its TTL is reclaimed by the next claimant.
  std::uint64_t lease_ttl_seconds = 30;
  /// Sleep between claim sweeps when every incomplete cell is leased out.
  double poll_seconds = 0.5;
  /// Crash-simulation hook: once this many blocks have been appended, stop
  /// WITHOUT releasing the held lease (the on-disk state a hard-killed
  /// worker leaves) and throw ElasticAborted. 0 disables.
  std::uint64_t stop_after_blocks = 0;
  /// Lease only the cells this shard owns, and stop once they are durable.
  ShardSpec shard;
  bool fsync = true;  ///< fsync block-log appends (tests may disable)
  std::ostream* progress = nullptr;  ///< optional one-line-per-cell sink
};

struct ElasticResult {
  std::uint64_t blocks_run = 0;        ///< blocks this worker computed and appended
  std::uint64_t blocks_skipped = 0;    ///< blocks of leased cells already durable
  std::uint64_t cells_leased = 0;
  std::uint64_t leases_reclaimed = 0;  ///< stale leases swept while claiming
  bool campaign_complete = false;      ///< every owned cell durable when we left
};

/// Thrown by run_elastic_worker when options.stop_after_blocks fired. The
/// held lease is deliberately NOT released — this simulates a hard crash.
struct ElasticAborted : std::runtime_error {
  explicit ElasticAborted(std::uint64_t blocks)
      : std::runtime_error("elastic: stopped after " + std::to_string(blocks) +
                           " blocks (stop_after_blocks hook)"),
        blocks_completed(blocks) {}
  std::uint64_t blocks_completed = 0;
};

/// Creates the directory layout and the canonical spec.json, or verifies an
/// existing spec.json's fingerprint. Throws std::runtime_error when the
/// directory already hosts a different campaign.
void ensure_elastic_dir(const ScenarioSpec& spec, const std::string& dir);

/// Reads the spec.json of an existing elastic directory.
ScenarioSpec load_elastic_spec(const std::string& dir);

/// Durable progress of the whole campaign: every directory's compacted
/// checkpoint + every worker log, deduped by (cell, block) and drained into
/// per-cell prefixes.
struct ElasticProgress {
  /// Index-aligned with expand_grid(spec). prefix_blocks == num_blocks means
  /// the cell's trials are all durable.
  std::vector<CellProgress> cells;
  /// Whether the cell's prefix carries finalized metadata (labels, analytic
  /// columns) — true only for complete cells folded by compaction.
  std::vector<char> finalized;
  std::uint64_t durable_blocks = 0;  ///< distinct durable blocks, all cells
};

/// Loads and validates the durable progress of one or more directories of
/// the same campaign (say, one per static shard). Where two directories hold
/// the same cell, the longer compacted prefix wins and blocks are deduped by
/// (cell, block): the copies are byte-identical, since trials are
/// counter-based. Tolerates torn log tails (live appends elsewhere); throws
/// on structural corruption or a fingerprint mismatch of any directory's
/// spec.json, checkpoint or log.
ElasticProgress load_elastic_progress(const ScenarioSpec& spec,
                                      const std::vector<std::string>& dirs);

/// Folds every log into compacted.ckpt (finalizing cells that completed),
/// then empties `own_log` (whose records are now in the checkpoint). Other
/// workers' logs are never truncated — they compact their own. Serialized by
/// leases/compact.lease; returns false (doing nothing) when another worker
/// holds it. `own_log` may be null (merge-time compaction).
bool compact_elastic_dir(const ScenarioSpec& spec, const std::string& dir,
                         const std::string& worker_id, BlockLog* own_log,
                         std::uint64_t lease_ttl_seconds, bool fsync);

/// Joins the elastic campaign at `options.dir` and works until every cell its
/// shard owns is durable (when nothing is claimable and someone else holds
/// the rest, it keeps polling until they are). Throws ElasticAborted
/// when the crash hook fires, std::runtime_error on unusable specs, bad shard
/// coordinates or a directory belonging to a different campaign.
ElasticResult run_elastic_worker(const ScenarioSpec& spec, const ElasticOptions& options);

}  // namespace ftdb::campaign::elastic
