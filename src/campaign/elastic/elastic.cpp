#include "campaign/elastic/elastic.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>

#include "campaign/elastic/lease.hpp"

namespace ftdb::campaign::elastic {
namespace {

namespace fs = std::filesystem;

std::string spec_path(const std::string& dir) { return dir + "/spec.json"; }
std::string ckpt_path(const std::string& dir) { return dir + "/compacted.ckpt"; }
std::string cell_lease_path(const std::string& dir, std::size_t cell) {
  return dir + "/leases/cell-" + std::to_string(cell) + ".lease";
}
std::string compact_lease_path(const std::string& dir) { return dir + "/leases/compact.lease"; }
std::string own_log_path(const std::string& dir, const std::string& worker_id) {
  return dir + "/logs/" + worker_id + ".blk";
}

std::string default_worker_id() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof buf - 1) != 0) std::strcpy(buf, "worker");
  return std::string(buf) + "-" + std::to_string(::getpid());
}

void validate_spec(const ScenarioSpec& spec, const std::vector<ScenarioCase>& cells) {
  if (cells.empty()) throw std::runtime_error("elastic: spec expands to zero cells");
  if (spec.trials == 0) throw std::runtime_error("elastic: spec asks for zero trials");
}

/// Cell indices, most expensive predicted cell first (ties by index), so the
/// campaign's long poles start earliest and the tail stays short.
std::vector<std::size_t> cost_order(const ScenarioSpec& spec,
                                    const std::vector<ScenarioCase>& cells) {
  std::vector<std::pair<double, std::size_t>> keyed;
  keyed.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    keyed.emplace_back(-predicted_cell_cost(spec, cells[i]), i);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::size_t> order;
  order.reserve(keyed.size());
  for (const auto& [cost, i] : keyed) order.push_back(i);
  return order;
}

}  // namespace

void ensure_elastic_dir(const ScenarioSpec& spec, const std::string& dir) {
  fs::create_directories(dir + "/leases");
  fs::create_directories(dir + "/logs");
  const std::string canonical = scenario_spec_to_json(spec);
  std::error_code ec;
  if (fs::exists(spec_path(dir), ec)) {
    const ScenarioSpec existing = parse_scenario_spec(read_text_file(spec_path(dir)));
    if (spec_fingerprint(existing) != spec_fingerprint(spec)) {
      throw std::runtime_error("elastic: " + dir +
                               " already hosts a different campaign (spec fingerprint mismatch)");
    }
    return;
  }
  // Two workers racing here both write the canonical serialization of the
  // same spec, so last-rename-wins is byte-identical either way.
  write_file_atomically(spec_path(dir), canonical, true);
}

ScenarioSpec load_elastic_spec(const std::string& dir) {
  return parse_scenario_spec(read_text_file(spec_path(dir)));
}

ElasticProgress load_elastic_progress(const ScenarioSpec& spec, const std::string& dir) {
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  validate_spec(spec, cells);
  const std::uint64_t spec_fp = spec_fingerprint(spec);
  const std::uint64_t total_blocks = num_trial_blocks(spec.trials);

  ElasticProgress progress;
  progress.cells.resize(cells.size());
  progress.finalized.assign(cells.size(), 0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    progress.cells[i].scenario_index = i;
    progress.cells[i].prefix.scenario_index = i;
  }
  // Blocks durable past each cell's prefix, deduped by block index. Lease
  // races can make two logs carry the same (cell, block); the copies are
  // byte-identical (counter-based trials), so first-wins is exact.
  std::vector<std::map<std::uint64_t, ScenarioResult>> extras(cells.size());

  std::error_code ec;
  if (fs::exists(ckpt_path(dir), ec)) {
    const Checkpoint ckpt = parse_checkpoint(read_text_file(ckpt_path(dir)));
    if (ckpt.fingerprint != spec_fp) {
      throw std::runtime_error("elastic: " + ckpt_path(dir) +
                               " belongs to a different spec (fingerprint mismatch)");
    }
    if (!ckpt.shard.whole_campaign()) {
      throw std::runtime_error("elastic: " + ckpt_path(dir) +
                               " is a shard checkpoint, not an elastic compaction");
    }
    for (const CellProgress& cp : ckpt.cells) {
      if (cp.scenario_index >= cells.size()) {
        throw std::runtime_error("elastic: checkpoint cell " +
                                 std::to_string(cp.scenario_index) + " is outside the grid");
      }
      check_cell_progress(cp, spec.trials, "elastic: " + ckpt_path(dir));
      progress.cells[cp.scenario_index] = cp;
      progress.finalized[cp.scenario_index] = cp.prefix_blocks == total_blocks ? 1 : 0;
      extras[cp.scenario_index].insert(cp.extra.begin(), cp.extra.end());
      progress.cells[cp.scenario_index].extra.clear();  // re-drained below
    }
  }

  // Every worker's log, in sorted filename order (determinism of the scan;
  // the records themselves are order-independent thanks to dedup-by-block).
  std::vector<std::string> log_paths;
  if (fs::exists(dir + "/logs", ec)) {
    for (const auto& entry : fs::directory_iterator(dir + "/logs")) {
      if (entry.path().extension() == ".blk") log_paths.push_back(entry.path().string());
    }
  }
  std::sort(log_paths.begin(), log_paths.end());
  for (const std::string& path : log_paths) {
    for (BlockRecord& rec : BlockLog::read(path, spec_fp)) {
      if (rec.cell >= cells.size()) {
        throw std::runtime_error("elastic: " + path + " records a cell outside the grid");
      }
      if (rec.block >= total_blocks) {
        throw std::runtime_error("elastic: " + path + " records a block outside the campaign");
      }
      if (rec.partial.trials != trials_in_block(spec.trials, rec.block) ||
          rec.partial.scenario_index != rec.cell) {
        throw std::runtime_error("elastic: " + path + " records a malformed block partial");
      }
      if (rec.block < progress.cells[rec.cell].prefix_blocks) continue;  // compacted already
      extras[rec.cell].emplace(rec.block, std::move(rec.partial));       // first copy wins
    }
  }

  // Drain contiguous runs into each prefix; what remains stays as extras.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellProgress& cp = progress.cells[i];
    auto& pool = extras[i];
    while (!pool.empty() && pool.begin()->first == cp.prefix_blocks) {
      cp.prefix.merge(pool.begin()->second);
      ++cp.prefix_blocks;
      pool.erase(pool.begin());
    }
    for (auto& [block, partial] : pool) cp.extra.emplace_back(block, std::move(partial));
    progress.durable_blocks += cp.prefix_blocks + cp.extra.size();
  }
  return progress;
}

bool compact_elastic_dir(const ScenarioSpec& spec, const std::string& dir,
                         const std::string& worker_id, BlockLog* own_log,
                         std::uint64_t lease_ttl_seconds, bool fsync) {
  Lease lock = Lease::try_acquire(compact_lease_path(dir), worker_id, lease_ttl_seconds);
  if (!lock.held()) return false;  // someone else is compacting; theirs covers our records

  const std::vector<ScenarioCase> cells = expand_grid(spec);
  const std::uint64_t total_blocks = num_trial_blocks(spec.trials);
  ElasticProgress progress = load_elastic_progress(spec, dir);

  Checkpoint ckpt;  // whole-campaign shard; stamps derived by the serializer
  TargetTable targets(spec, cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellProgress& cp = progress.cells[i];
    if (cp.prefix_blocks == 0 && cp.extra.empty()) continue;
    if (cp.prefix_blocks == total_blocks && progress.finalized[i] == 0) {
      // A checkpointed complete prefix is finalized by convention; cells
      // completed by log records still carry raw accumulators.
      CellRunner(spec, cells[i], targets).finalize(cp.prefix);
    }
    ckpt.cells.push_back(std::move(cp));
  }
  // Write the new snapshot BEFORE truncating any log: a crash between the
  // two leaves duplicate records, which dedup makes harmless; the reverse
  // order could lose blocks.
  write_file_atomically(ckpt_path(dir), checkpoint_to_json(spec, ckpt), fsync);
  if (own_log != nullptr) own_log->truncate_all();
  lock.release();
  return true;
}

ElasticResult run_elastic_worker(const ScenarioSpec& spec, const ElasticOptions& options) {
  if (options.dir.empty()) throw std::runtime_error("elastic: no directory given");
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  validate_spec(spec, cells);
  const std::uint64_t spec_fp = spec_fingerprint(spec);
  const std::uint64_t total_blocks = num_trial_blocks(spec.trials);
  const std::string worker_id =
      options.worker_id.empty() ? default_worker_id() : options.worker_id;
  const std::uint64_t ttl = std::max<std::uint64_t>(1, options.lease_ttl_seconds);

  ensure_elastic_dir(spec, options.dir);
  BlockLog log(own_log_path(options.dir, worker_id), spec_fp, options.fsync);
  // A restarted worker's own log may hold a dead predecessor's blocks; fold
  // them (and anyone else's) forward before claiming anything.
  compact_elastic_dir(spec, options.dir, worker_id, &log, ttl, options.fsync);

  const std::vector<std::size_t> order = cost_order(spec, cells);
  unsigned threads = options.threads == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : options.threads;

  ElasticResult res;
  for (;;) {
    ElasticProgress progress = load_elastic_progress(spec, options.dir);
    bool all_complete = true;
    for (const CellProgress& cp : progress.cells) {
      all_complete = all_complete && cp.prefix_blocks == total_blocks;
    }
    if (all_complete) {
      // Final fold: finalizes every completed-by-log cell and leaves one
      // checkpoint that IS the campaign (merge reads it straight off).
      compact_elastic_dir(spec, options.dir, worker_id, &log, ttl, options.fsync);
      res.campaign_complete = true;
      return res;
    }

    bool worked = false;
    for (const std::size_t idx : order) {
      if (progress.cells[idx].prefix_blocks == total_blocks) continue;
      bool reclaimed = false;
      Lease lease =
          Lease::try_acquire(cell_lease_path(options.dir, idx), worker_id, ttl, &reclaimed);
      if (reclaimed) ++res.leases_reclaimed;
      if (!lease.held()) continue;
      ++res.cells_leased;
      worked = true;

      // Re-read progress now that the cell is ours: a previous (possibly
      // dead) holder may have made more blocks durable than our last scan saw.
      progress = load_elastic_progress(spec, options.dir);
      const CellProgress& cp = progress.cells[idx];
      std::vector<std::uint64_t> remaining;
      {
        std::size_t extra_at = 0;
        for (std::uint64_t b = cp.prefix_blocks; b < total_blocks; ++b) {
          while (extra_at < cp.extra.size() && cp.extra[extra_at].first < b) ++extra_at;
          if (extra_at < cp.extra.size() && cp.extra[extra_at].first == b) continue;
          remaining.push_back(b);
        }
      }
      res.blocks_skipped += total_blocks - remaining.size();

      // Heartbeat from a dedicated thread at ttl/3, so long blocks cannot
      // starve the lease into looking dead.
      std::mutex hb_mu;
      std::condition_variable hb_cv;
      bool hb_stop = false;
      std::atomic<bool> lost{false};
      std::thread heartbeat([&] {
        const auto interval = std::chrono::milliseconds(std::max<std::uint64_t>(ttl * 1000 / 3, 100));
        std::unique_lock<std::mutex> lk(hb_mu);
        while (!hb_cv.wait_for(lk, interval, [&] { return hb_stop; })) {
          lk.unlock();
          try {
            lease.heartbeat();
          } catch (...) {
            // LeaseLost or I/O trouble: stop running this cell. Everything
            // already appended is durable; duplicates by the reclaimer merge
            // away.
            lost.store(true);
          }
          lk.lock();
          if (lost.load()) return;
        }
      });

      CellRunner runner(spec, cells[idx]);
      std::atomic<std::size_t> next{0};
      std::atomic<bool> abort_all{false};
      std::uint64_t cell_blocks_run = 0;
      std::mutex log_mu;
      std::mutex fail_mu;
      std::exception_ptr block_failure;
      auto block_worker = [&] {
        try {
          for (;;) {
            if (lost.load() || abort_all.load()) return;
            const std::size_t i = next.fetch_add(1);
            if (i >= remaining.size()) return;
            const ScenarioResult partial = runner.run_block(remaining[i]);
            const std::lock_guard<std::mutex> lk(log_mu);
            if (abort_all.load()) return;  // the crash hook fired mid-compute
            log.append({idx, remaining[i], partial});
            ++cell_blocks_run;
            if (options.stop_after_blocks != 0 &&
                res.blocks_run + cell_blocks_run >= options.stop_after_blocks) {
              abort_all.store(true);
            }
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lk(fail_mu);
          if (!block_failure) block_failure = std::current_exception();
          abort_all.store(true);
        }
      };
      {
        const unsigned pool_size = static_cast<unsigned>(
            std::min<std::size_t>(threads, std::max<std::size_t>(remaining.size(), 1)));
        std::vector<std::thread> pool;
        pool.reserve(pool_size);
        for (unsigned t = 0; t < pool_size; ++t) pool.emplace_back(block_worker);
        for (std::thread& t : pool) t.join();
      }
      {
        const std::lock_guard<std::mutex> lk(hb_mu);
        hb_stop = true;
      }
      hb_cv.notify_all();
      heartbeat.join();
      res.blocks_run += cell_blocks_run;

      if (block_failure) {
        lease.release();  // let someone else take over; our blocks are durable
        std::rethrow_exception(block_failure);
      }
      if (options.stop_after_blocks != 0 && res.blocks_run >= options.stop_after_blocks) {
        lease.abandon();  // simulated hard crash: the lease file stays behind
        throw ElasticAborted(res.blocks_run);
      }
      if (lost.load()) {
        lease.abandon();  // not ours anymore; rescan and move on
        break;
      }

      lease.release();
      compact_elastic_dir(spec, options.dir, worker_id, &log, ttl, options.fsync);
      if (options.progress != nullptr) {
        *options.progress << "[" << worker_id << "] " << cells[idx].label() << ": ran "
                          << cell_blocks_run << "/" << total_blocks << " blocks\n";
      }
      break;  // rescan from a fresh progress snapshot
    }

    if (!worked) {
      // Every incomplete cell is leased by a live worker: poll until they
      // finish (or die and their leases age out).
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<std::int64_t>(options.poll_seconds * 1000)));
    }
  }
}

}  // namespace ftdb::campaign::elastic
