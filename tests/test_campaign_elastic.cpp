// Elastic campaign service tests: lease claim/reclaim protocol, block-log
// durability (torn tails, dedup), crash-and-reclaim byte-identity against a
// serial run, and live partial reports.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>

#include "campaign/elastic/blocklog.hpp"
#include "campaign/elastic/elastic.hpp"
#include "campaign/elastic/lease.hpp"
#include "campaign/elastic/partial.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "serve/durable_file.hpp"

namespace ftdb::campaign::elastic {
namespace {

using serve::write_file_atomically;

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::path(::testing::TempDir()) / ("ftdb-elastic-" + name)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
  std::string sub(const std::string& leaf) const { return (path / leaf).string(); }
};

/// Two cells, 3 blocks each (256 + 256 + 8 trials) — big enough to exercise
/// partial prefixes, small enough to run in milliseconds.
ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "elastic-test";
  spec.seed = 11;
  spec.trials = 520;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 3}};
  spec.spares = {1, 2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = true;
  spec.metrics.stretch = false;
  spec.metrics.mttf = true;
  return spec;
}

/// The pid of a child that has exited and been reaped: a process that is
/// certainly gone.
std::int64_t reaped_child_pid() {
  const pid_t child = ::fork();
  if (child == 0) ::_exit(0);
  int status = 0;
  EXPECT_EQ(::waitpid(child, &status, 0), child);
  return child;
}

std::string this_host() {
  char buf[256] = {};
  EXPECT_EQ(::gethostname(buf, sizeof buf - 1), 0);
  return buf;
}

/// Rewrites every lease in `dir` to name a process that is gone, as a
/// hard-killed worker leaves it; its heartbeat stays fresh.
void kill_lease_holders(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir + "/leases")) {
    auto stamp = read_lease(entry.path().string());
    if (!stamp.has_value()) continue;
    stamp->pid = reaped_child_pid();
    std::ofstream(entry.path(), std::ios::trunc) << lease_stamp_json(*stamp);
  }
}

ElasticOptions quick_options(const std::string& dir, const std::string& worker) {
  ElasticOptions opt;
  opt.dir = dir;
  opt.worker_id = worker;
  opt.threads = 2;
  opt.lease_ttl_seconds = 60;  // long: tests reclaim by backdating, not sleeping
  opt.poll_seconds = 0.01;
  opt.fsync = false;
  return opt;
}

// --- leases -----------------------------------------------------------------

TEST(Lease, ClaimIsExclusiveUntilReleased) {
  const ScratchDir dir("lease-claim");
  const std::string path = dir.sub("cell-0.lease");

  Lease first = Lease::try_acquire(path, "alpha", 60);
  ASSERT_TRUE(first.held());

  bool reclaimed = true;
  Lease second = Lease::try_acquire(path, "beta", 60, &reclaimed);
  EXPECT_FALSE(second.held());       // double-lease rejected
  EXPECT_FALSE(reclaimed);           // and nothing was swept to get there

  first.release();
  EXPECT_FALSE(fs::exists(path));
  Lease third = Lease::try_acquire(path, "beta", 60);
  EXPECT_TRUE(third.held());
}

TEST(Lease, StampRoundTripsAndNamesTheHolder) {
  const ScratchDir dir("lease-stamp");
  const std::string path = dir.sub("cell-0.lease");
  Lease lease = Lease::try_acquire(path, "alpha", 42);
  ASSERT_TRUE(lease.held());

  const auto stamp = read_lease(path);
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->worker, "alpha");
  EXPECT_EQ(stamp->ttl_secs, 42u);
  EXPECT_GT(stamp->heartbeat_secs, 0u);
  EXPECT_LE(stamp->heartbeat_secs, lease_now_secs());
}

TEST(Lease, StaleHeartbeatIsReclaimed) {
  const ScratchDir dir("lease-stale");
  const std::string path = dir.sub("cell-0.lease");
  {
    // The crash shape: the lease file stays behind, nobody heartbeats it.
    Lease doomed = Lease::try_acquire(path, "dead-worker", 60);
    ASSERT_TRUE(doomed.held());
    doomed.abandon();
  }
  ASSERT_TRUE(fs::exists(path));
  // Backdate the heartbeat far past the TTL (what wall-clock aging produces,
  // without the test sleeping).
  LeaseStamp stale;
  stale.worker = "dead-worker";
  stale.pid = 1;
  stale.host = "gone";
  stale.heartbeat_secs = 1;
  stale.ttl_secs = 1;
  std::ofstream(path, std::ios::trunc) << lease_stamp_json(stale);

  bool reclaimed = false;
  Lease taken = Lease::try_acquire(path, "rescuer", 60, &reclaimed);
  EXPECT_TRUE(taken.held());
  EXPECT_TRUE(reclaimed);
  const auto stamp = read_lease(path);
  ASSERT_TRUE(stamp.has_value());
  EXPECT_EQ(stamp->worker, "rescuer");
}

TEST(Lease, SameWorkerReclaimsItsDeadProcessLeaseAtOnce) {
  const ScratchDir dir("lease-own-dead");
  const std::string path = dir.sub("cell-0.lease");
  // A fresh stamp, far inside its TTL, from this worker id on this host.
  const auto write_stamp = [&](const std::string& worker, const std::string& host,
                               std::int64_t pid) {
    LeaseStamp stamp;
    stamp.worker = worker;
    stamp.pid = pid;
    stamp.host = host;
    stamp.heartbeat_secs = lease_now_secs();
    stamp.ttl_secs = 3600;
    std::ofstream(path, std::ios::trunc) << lease_stamp_json(stamp);
  };

  // Its process is gone: the rerun takes the lease back without waiting.
  write_stamp("alpha", this_host(), reaped_child_pid());
  bool reclaimed = false;
  Lease taken = Lease::try_acquire(path, "alpha", 60, &reclaimed);
  EXPECT_TRUE(taken.held());
  EXPECT_TRUE(reclaimed);
  taken.release();

  // Alive (this very process), on another host, or another worker's: the
  // stamp is fresh, so nobody may take it before the TTL.
  for (const auto& [worker, host, pid] :
       {std::tuple{std::string("alpha"), this_host(), std::int64_t{::getpid()}},
        std::tuple{std::string("alpha"), std::string("elsewhere"), reaped_child_pid()},
        std::tuple{std::string("beta"), this_host(), reaped_child_pid()}}) {
    SCOPED_TRACE(worker + "@" + host + " pid " + std::to_string(pid));
    write_stamp(worker, host, pid);
    reclaimed = true;
    Lease refused = Lease::try_acquire(path, "alpha", 60, &reclaimed);
    EXPECT_FALSE(refused.held());
    EXPECT_FALSE(reclaimed);
    EXPECT_EQ(read_lease(path)->worker, worker);
  }
}

TEST(Lease, GarbledStampCountsAsStale) {
  const ScratchDir dir("lease-garbled");
  const std::string path = dir.sub("cell-0.lease");
  std::ofstream(path, std::ios::trunc) << "not json at all";
  bool reclaimed = false;
  Lease taken = Lease::try_acquire(path, "rescuer", 60, &reclaimed);
  EXPECT_TRUE(taken.held());
  EXPECT_TRUE(reclaimed);
}

TEST(Lease, HeartbeatRefreshesAndDetectsLoss) {
  const ScratchDir dir("lease-heartbeat");
  const std::string path = dir.sub("cell-0.lease");
  Lease lease = Lease::try_acquire(path, "alpha", 60);
  ASSERT_TRUE(lease.held());
  EXPECT_NO_THROW(lease.heartbeat());

  // Simulate a reclaim: replace the lease file (new inode) behind our back.
  fs::remove(path);
  Lease thief = Lease::try_acquire(path, "beta", 60);
  ASSERT_TRUE(thief.held());
  EXPECT_THROW(lease.heartbeat(), LeaseLost);
  EXPECT_FALSE(lease.held());
  // A lost lease's release must not unlink the thief's file.
  lease.release();
  EXPECT_TRUE(fs::exists(path));
}

// --- block log --------------------------------------------------------------

BlockRecord sample_record(std::uint64_t cell, std::uint64_t block) {
  const ScenarioSpec spec = tiny_spec();
  const CellRunner runner(spec, expand_grid(spec)[cell]);
  return {cell, block, runner.run_block(block)};
}

TEST(BlockLog, AppendRecoverRoundTrip) {
  const ScratchDir dir("blocklog-roundtrip");
  const std::string path = dir.sub("w.blk");
  const BlockRecord a = sample_record(0, 0);
  const BlockRecord b = sample_record(1, 2);
  {
    BlockLog log(path, 99, false);
    EXPECT_EQ(log.recovered().size(), 0u);
    log.append(a);
    log.append(b);
    EXPECT_EQ(log.num_records(), 2u);
  }
  BlockLog reopened(path, 99, false);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  ASSERT_EQ(reopened.recovered().size(), 2u);
  EXPECT_EQ(reopened.recovered()[0].cell, 0u);
  EXPECT_EQ(reopened.recovered()[0].block, 0u);
  EXPECT_EQ(reopened.recovered()[1].cell, 1u);
  EXPECT_EQ(reopened.recovered()[1].block, 2u);
  // The partial round-trips bit-exactly (doubles via %.17g).
  EXPECT_EQ(reopened.recovered()[0].partial.trials, a.partial.trials);
  EXPECT_EQ(reopened.recovered()[0].partial.reconfig_success, a.partial.reconfig_success);
  EXPECT_EQ(reopened.recovered()[0].partial.fault_count.mean, a.partial.fault_count.mean);
}

TEST(BlockLog, TornTailIsTruncatedOnOwningOpenOnly) {
  const ScratchDir dir("blocklog-torn");
  const std::string path = dir.sub("w.blk");
  {
    BlockLog log(path, 7, false);
    log.append(sample_record(0, 0));
    log.append(sample_record(0, 1));
  }
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size - 3);  // tear the second record's frame

  // Read-only scan: sees one intact record, leaves the file alone.
  EXPECT_EQ(BlockLog::read(path, 7).size(), 1u);
  EXPECT_EQ(fs::file_size(path), full_size - 3);

  // Owning open: recovers one record and truncates the torn bytes away.
  BlockLog reopened(path, 7, false);
  EXPECT_EQ(reopened.recovered().size(), 1u);
  EXPECT_GT(reopened.truncated_bytes(), 0u);
  EXPECT_EQ(fs::file_size(path), reopened.size_bytes());

  // The repaired log appends cleanly again.
  reopened.append(sample_record(0, 1));
  EXPECT_EQ(reopened.num_records(), 2u);
}

TEST(BlockLog, FingerprintMismatchIsRefused) {
  const ScratchDir dir("blocklog-fp");
  const std::string path = dir.sub("w.blk");
  { BlockLog log(path, 1, false); }
  EXPECT_THROW(BlockLog(path, 2, false), std::runtime_error);
  EXPECT_THROW(BlockLog::read(path, 2), std::runtime_error);
}

TEST(BlockLog, TruncateAllKeepsTheHeader) {
  const ScratchDir dir("blocklog-truncate");
  const std::string path = dir.sub("w.blk");
  BlockLog log(path, 5, false);
  log.append(sample_record(0, 0));
  log.truncate_all();
  EXPECT_EQ(log.num_records(), 0u);
  EXPECT_EQ(BlockLog::read(path, 5).size(), 0u);  // header still valid
  log.append(sample_record(0, 1));                // and appendable
  EXPECT_EQ(BlockLog::read(path, 5).size(), 1u);
}

// --- elastic worker ---------------------------------------------------------

TEST(ElasticWorker, SingleWorkerMatchesSerialByteForByte) {
  const ScratchDir dir("elastic-single");
  const ScenarioSpec spec = tiny_spec();
  const ElasticResult r = run_elastic_worker(spec, quick_options(dir.str(), "solo"));
  EXPECT_TRUE(r.campaign_complete);
  EXPECT_EQ(r.blocks_run, 6u);  // 2 cells x 3 blocks
  EXPECT_EQ(r.cells_leased, 2u);

  const CampaignResult elastic = merge_elastic(spec, {dir.str()});
  const CampaignResult serial = run_campaign(spec, {});
  EXPECT_EQ(campaign_report_json(elastic), campaign_report_json(serial));
}

TEST(ElasticWorker, CrashedWorkerLeavesLeaseAndRescuerMatchesSerial) {
  const ScratchDir dir("elastic-crash");
  const ScenarioSpec spec = tiny_spec();

  ElasticOptions crashy = quick_options(dir.str(), "crashy");
  crashy.stop_after_blocks = 2;
  EXPECT_THROW(run_elastic_worker(spec, crashy), ElasticAborted);

  // The hard-killed worker's cell lease is still on disk.
  std::size_t leases = 0;
  std::string lease_path;
  for (const auto& entry : fs::directory_iterator(dir.sub("leases"))) {
    if (entry.path().filename().string().rfind("cell-", 0) == 0) {
      ++leases;
      lease_path = entry.path().string();
    }
  }
  ASSERT_EQ(leases, 1u);

  // Age the corpse's heartbeat past its TTL (instead of sleeping it out).
  auto stamp = read_lease(lease_path);
  ASSERT_TRUE(stamp.has_value());
  stamp->heartbeat_secs = 1;
  stamp->ttl_secs = 1;
  std::ofstream(lease_path, std::ios::trunc) << lease_stamp_json(*stamp);

  const ElasticResult rescue = run_elastic_worker(spec, quick_options(dir.str(), "rescuer"));
  EXPECT_TRUE(rescue.campaign_complete);
  EXPECT_EQ(rescue.leases_reclaimed, 1u);
  EXPECT_EQ(rescue.blocks_skipped, 2u);  // the crashed worker's durable blocks
  EXPECT_EQ(rescue.blocks_run, 4u);

  const CampaignResult elastic = merge_elastic(spec, {dir.str()});
  const CampaignResult serial = run_campaign(spec, {});
  EXPECT_EQ(campaign_report_json(elastic), campaign_report_json(serial));
}

TEST(ElasticWorker, DirectoryRefusesADifferentSpec) {
  const ScratchDir dir("elastic-respec");
  const ScenarioSpec spec = tiny_spec();
  ensure_elastic_dir(spec, dir.str());
  ScenarioSpec other = spec;
  other.seed = 999;
  EXPECT_THROW(ensure_elastic_dir(other, dir.str()), std::runtime_error);
  EXPECT_THROW(run_elastic_worker(other, quick_options(dir.str(), "w")), std::runtime_error);
}

TEST(ElasticWorker, RestartedWorkerIdReusesItsLogSafely) {
  const ScratchDir dir("elastic-restart");
  const ScenarioSpec spec = tiny_spec();
  ElasticOptions crashy = quick_options(dir.str(), "same-id");
  crashy.stop_after_blocks = 1;
  EXPECT_THROW(run_elastic_worker(spec, crashy), ElasticAborted);

  // Same worker id, full run: its own pre-crash records must fold forward,
  // not be lost or double-counted. The dead process's self-lease is taken
  // back at once, with no TTL to wait out.
  kill_lease_holders(dir.str());
  const ElasticResult again = run_elastic_worker(spec, quick_options(dir.str(), "same-id"));
  EXPECT_TRUE(again.campaign_complete);
  EXPECT_EQ(again.leases_reclaimed, 1u);
  EXPECT_EQ(again.blocks_run + again.blocks_skipped, 6u);
  EXPECT_EQ(again.blocks_skipped, 1u);

  const CampaignResult elastic = merge_elastic(spec, {dir.str()});
  const CampaignResult serial = run_campaign(spec, {});
  EXPECT_EQ(campaign_report_json(elastic), campaign_report_json(serial));
}

// --- partial reports --------------------------------------------------------

TEST(PartialReport, CoverageStampsMatchDurableBlocks) {
  const ScratchDir dir("partial-coverage");
  const ScenarioSpec spec = tiny_spec();
  ElasticOptions crashy = quick_options(dir.str(), "crashy");
  crashy.stop_after_blocks = 2;
  // Single-threaded so the two durable blocks are deterministically blocks
  // 0 and 1 of the first-leased cell (with a pool, the short final block can
  // beat the middle one and the coverage count would depend on timing).
  crashy.threads = 1;
  EXPECT_THROW(run_elastic_worker(spec, crashy), ElasticAborted);

  const std::string report = partial_elastic_report_json(spec, {dir.str()});
  // A partial document is a *valid* ftdb-campaign-v1 report.
  EXPECT_EQ(validate_campaign_report(report), 2u);

  const analysis::JsonValue doc = analysis::json_parse(report);
  EXPECT_TRUE(doc.at("partial").boolean);
  const analysis::JsonValue& cov = doc.at("coverage");
  EXPECT_EQ(static_cast<std::uint64_t>(cov.at("completed_trials").number), 512u);
  EXPECT_EQ(static_cast<std::uint64_t>(cov.at("total_trials").number), 1040u);
  EXPECT_EQ(static_cast<std::uint64_t>(cov.at("cells_complete").number), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(cov.at("cells_total").number), 2u);
  ASSERT_EQ(cov.at("cells").array.size(), 2u);
  std::uint64_t blocks = 0;
  for (const analysis::JsonValue& c : cov.at("cells").array) {
    blocks += static_cast<std::uint64_t>(c.at("completed_blocks").number);
    EXPECT_EQ(static_cast<std::uint64_t>(c.at("total_blocks").number), 3u);
  }
  EXPECT_EQ(blocks, 2u);

  // The scenarios array covers every grid cell, incomplete ones included.
  EXPECT_EQ(doc.at("scenarios").array.size(), 2u);

  // While the full merge refuses the incomplete directory.
  EXPECT_THROW(merge_elastic(spec, {dir.str()}), std::runtime_error);
}

TEST(PartialReport, CompletedCellsAreByteIdenticalToTheFinalReport) {
  const ScratchDir dir("partial-identity");
  const ScenarioSpec spec = tiny_spec();
  ElasticOptions opt = quick_options(dir.str(), "w1");
  opt.stop_after_blocks = 3;  // exactly one cell completed, one untouched
  EXPECT_THROW(run_elastic_worker(spec, opt), ElasticAborted);

  const std::string partial = partial_elastic_report_json(spec, {dir.str()});
  EXPECT_EQ(validate_campaign_report(partial), 2u);

  // Finish the campaign (the crashed lease must age out first).
  for (const auto& entry : fs::directory_iterator(dir.sub("leases"))) {
    auto stamp = read_lease(entry.path().string());
    if (!stamp.has_value()) continue;
    stamp->heartbeat_secs = 1;
    stamp->ttl_secs = 1;
    std::ofstream(entry.path(), std::ios::trunc) << lease_stamp_json(*stamp);
  }
  run_elastic_worker(spec, quick_options(dir.str(), "w2"));
  const std::string full = campaign_report_json(merge_elastic(spec, {dir.str()}));

  // Every scenario the partial report showed as complete appears verbatim in
  // the final report: the serialized object is a byte-identical substring.
  const analysis::JsonValue pdoc = analysis::json_parse(partial);
  std::size_t complete_cells = 0;
  for (std::size_t i = 0; i < pdoc.at("scenarios").array.size(); ++i) {
    const ScenarioResult r = parse_scenario_result(pdoc.at("scenarios").array[i]);
    if (r.trials != spec.trials) continue;
    ++complete_cells;
    analysis::JsonWriter w;
    write_scenario_result(w, r);
    EXPECT_NE(full.find(w.str()), std::string::npos)
        << "completed cell " << i << " not found verbatim in the final report";
  }
  EXPECT_EQ(complete_cells, 1u);
}

TEST(ElasticMerge, LogOnlyCellsFinalizeThroughSharedTargetsByteForByte) {
  // Every block lands in a worker log and no compaction runs, so the merge,
  // the partial report and the compaction each finalize all six cells —
  // through one target per topology.
  const ScratchDir dir("merge-shared-targets");
  ScenarioSpec spec = tiny_spec();
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 3}, {TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {0, 1, 2};
  spec.metrics.collective = true;
  ensure_elastic_dir(spec, dir.str());
  {
    BlockLog log(dir.sub("logs/writer.blk"), spec_fingerprint(spec), false);
    for (const ScenarioCase& cell : expand_grid(spec)) {
      const CellRunner runner(spec, cell);
      for (std::uint64_t b = 0; b < runner.num_blocks(); ++b) {
        log.append({cell.index, b, runner.run_block(b)});
      }
    }
  }
  const std::string serial = campaign_report_json(run_campaign(spec, {}));
  EXPECT_EQ(campaign_report_json(merge_elastic(spec, {dir.str()})), serial);

  const analysis::JsonValue pdoc =
      analysis::json_parse(partial_elastic_report_json(spec, {dir.str()}));
  ASSERT_EQ(pdoc.at("scenarios").array.size(), 6u);
  for (const analysis::JsonValue& cell : pdoc.at("scenarios").array) {
    analysis::JsonWriter w;
    write_scenario_result(w, parse_scenario_result(cell));
    EXPECT_NE(serial.find(w.str()), std::string::npos);
  }

  TargetTable targets(spec, expand_grid(spec));
  ASSERT_TRUE(compact_elastic_dir(spec, targets, dir.str(), "compactor", nullptr, 60, false));
  EXPECT_EQ(campaign_report_json(merge_elastic(spec, {dir.str()})), serial);
}

TEST(ElasticMerge, DirectoriesSharingACellKeepTheLongerPrefix) {
  // One directory holds the whole campaign; another holds cell 0's block 0
  // as its compacted prefix and block 2 parked past it. In either order the
  // merge keeps the longer prefix and drops the shorter copy's blocks, which
  // are byte-identical.
  const ScenarioSpec spec = tiny_spec();
  const ScratchDir whole("overlap-whole");
  run_elastic_worker(spec, quick_options(whole.str(), "w"));
  const ScratchDir cut("overlap-cut");
  ensure_elastic_dir(spec, cut.str());
  const CellRunner runner(spec, expand_grid(spec).front());
  CellProgress cell;
  cell.prefix_blocks = 1;
  cell.prefix = runner.run_block(0);
  cell.extra.emplace_back(2, runner.run_block(2));
  Checkpoint ckpt;
  ckpt.cells.push_back(cell);
  write_file_atomically(cut.sub("compacted.ckpt"), checkpoint_to_json(spec, ckpt), false);
  EXPECT_EQ(load_elastic_progress(spec, {cut.str()}).durable_blocks, 2u);

  const std::string serial = campaign_report_json(run_campaign(spec, {}));
  for (const std::vector<std::string>& dirs :
       {std::vector<std::string>{cut.str(), whole.str()},
        std::vector<std::string>{whole.str(), cut.str()}}) {
    EXPECT_EQ(load_elastic_progress(spec, dirs).durable_blocks, 6u);
    EXPECT_EQ(campaign_report_json(merge_elastic(spec, dirs)), serial);
  }
  EXPECT_THROW(merge_elastic(spec, {cut.str()}), std::runtime_error);
}

TEST(PartialReport, EmptyDirectoryIsAllZeroCoverage) {
  const ScratchDir dir("partial-empty");
  const ScenarioSpec spec = tiny_spec();
  ensure_elastic_dir(spec, dir.str());
  const std::string report = partial_elastic_report_json(spec, {dir.str()});
  EXPECT_EQ(validate_campaign_report(report), 2u);
  const analysis::JsonValue doc = analysis::json_parse(report);
  EXPECT_EQ(static_cast<std::uint64_t>(doc.at("coverage").at("completed_trials").number), 0u);
}

// --- cost model -------------------------------------------------------------

TEST(PredictedCellCost, MonotoneInSizeAndMetrics) {
  ScenarioSpec spec = tiny_spec();
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  ScenarioCase small = cells[0];
  ScenarioCase big = cells[0];
  big.topology.digits = 6;
  EXPECT_GT(predicted_cell_cost(spec, big), predicted_cell_cost(spec, small));

  ScenarioSpec with_stretch = spec;
  with_stretch.metrics.stretch = true;
  EXPECT_GT(predicted_cell_cost(with_stretch, small), predicted_cell_cost(spec, small));

  ScenarioSpec more_trials = spec;
  more_trials.trials *= 2;
  EXPECT_GT(predicted_cell_cost(more_trials, small), predicted_cell_cost(spec, small));
}

}  // namespace
}  // namespace ftdb::campaign::elastic
