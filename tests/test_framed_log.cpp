// Tests for serve::FramedLog, the one framed-log implementation behind the
// serve fault journal (FTDBJRN1) and the elastic campaign block logs
// (FTDBBLK1): golden on-disk bytes for both owners, torn-tail and corrupt-
// frame policy, append rollback under an injected short write + EFBIG,
// descriptor hygiene when construction fails, and a compaction whose
// directory cannot be synced.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "campaign/elastic/blocklog.hpp"
#include "serve/framed_log.hpp"
#include "serve/journal.hpp"

namespace ftdb {
namespace {

namespace fs = std::filesystem;
using campaign::elastic::BlockLog;
using campaign::elastic::BlockRecord;
using serve::FramedLog;
using serve::Journal;
using serve::JournalOp;
using serve::JournalRecord;

using Bytes = std::vector<unsigned char>;

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::path(::testing::TempDir()) /
             ("ftdb-framed-" + name + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string sub(const std::string& leaf) const { return (path / leaf).string(); }
};

Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
}

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Bytes text(const char* s) { return Bytes(s, s + std::char_traits<char>::length(s)); }

std::size_t open_fds() {
  return static_cast<std::size_t>(std::distance(fs::directory_iterator("/proc/self/fd"),
                                                fs::directory_iterator{}));
}

/// Lowers RLIMIT_FSIZE (with SIGXFSZ ignored, so an over-limit write returns
/// a short count and then EFBIG) until destroyed. Nothing may print while it
/// is active: the limit also applies to a test's stdout when that is a file.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = ::signal(SIGXFSZ, SIG_IGN);
    rlimit limited = saved_;
    limited.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &limited);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    ::signal(SIGXFSZ, old_handler_);
  }

 private:
  rlimit saved_{};
  sighandler_t old_handler_ = SIG_DFL;
};

// --- golden bytes -----------------------------------------------------------
//
// Written by the pre-FramedLog Journal and BlockLog from the hand-built
// records below; the single implementation must read and write them
// byte-for-byte.

constexpr std::uint64_t kJournalFingerprint = 0x0123456789abcdefULL;

const Bytes kJournalFixture = {
    // header: "FTDBJRN1", version 1, fingerprint, header CRC
    0x46, 0x54, 0x44, 0x42, 0x4a, 0x52, 0x4e, 0x31, 0x01, 0x00, 0x00, 0x00,
    0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x34, 0xd0, 0xd0, 0x27,
    // {op, a, b, crc} x 4
    0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf4, 0x09, 0xb7, 0xfb,
    0x02, 0x03, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x41, 0x74, 0x78, 0x3b,
    0x03, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x24, 0x3d, 0x2b, 0x88,
    0x04, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xbb, 0x4c, 0x20, 0xb1,
};

const std::vector<JournalRecord> kJournalRecords = {
    {JournalOp::kFaultNode, 7, 0},
    {JournalOp::kFaultLink, 3, 9},
    {JournalOp::kFaultBus, 12, 0},
    {JournalOp::kRepair, 7, 0},
};

constexpr std::uint64_t kBlockLogFingerprint = 0xfedcba9876543210ULL;

const Bytes kBlockLogFixture = concat({
    // header: "FTDBBLK1", version 1, fingerprint, header CRC
    {0x46, 0x54, 0x44, 0x42, 0x42, 0x4c, 0x4b, 0x31, 0x01, 0x00, 0x00, 0x00,
     0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 0x59, 0xa6, 0x17, 0x3d},
    // frame 1: type 1, payload_len 1131, payload, crc
    {0x01, 0x6b, 0x04, 0x00, 0x00},
    text(R"({"cell":2,"block":5,"partial":{"scenario_index":2,"label":"golden",)"
         R"("target_nodes":16,"fabric_nodes":18,"target_diameter":4,"trials":3,)"
         R"("reconfig_success":2,"over_budget":1,)"
         R"("fault_count":{"count":3,"mean":2,"m2":2,"min":1,"max":3},)"
         R"("reconfigured_diameter":{"count":0,"mean":0,"m2":0},)"
         R"("degraded_diameter":{"count":0,"mean":0,"m2":0},"degraded_disconnected":0,)"
         R"("route_stretch":{"count":0,"mean":0,"m2":0},)"
         R"("mttf":{"count":0,"mean":0,"m2":0},"mttf_censored":0,)"
         R"("collective_rounds":0,"collective_baseline_cycles":0,)"
         R"("collective_slowdown":{"count":0,"mean":0,"m2":0},)"
         R"("collective_hop_cycles":{"count":0,"mean":0,"m2":0},)"
         R"("collective_congestion":{"count":0,"mean":0,"m2":0},"collective_unreachable":0,)"
         R"("bus_fault_count":{"count":0,"mean":0,"m2":0},)"
         R"("traffic_delivered":{"count":0,"mean":0,"m2":0},)"
         R"("traffic_latency":{"count":0,"mean":0,"m2":0},)"
         R"("traffic_congestion":{"count":0,"mean":0,"m2":0},"traffic_timed_out":0,)"
         R"("survival_curve":[{"faults":1,"trials":1,"survived":1}],"slowdown_curve":[],)"
         R"("analytic_survival":null,"analytic_mttf":null,"success_rate":0.66666666666666663,)"
         R"("success_ci95_lo":0.20765960080204768,"success_ci95_hi":0.93850805527960368}})"),
    {0x75, 0xe5, 0x69, 0x9b},
    // frame 2: type 1, payload_len 1064, payload, crc
    {0x01, 0x28, 0x04, 0x00, 0x00},
    text(R"({"cell":0,"block":1,"partial":{"scenario_index":0,"label":"tail",)"
         R"("target_nodes":0,"fabric_nodes":0,"target_diameter":0,"trials":1,)"
         R"("reconfig_success":0,"over_budget":0,)"
         R"("fault_count":{"count":0,"mean":0,"m2":0},)"
         R"("reconfigured_diameter":{"count":0,"mean":0,"m2":0},)"
         R"("degraded_diameter":{"count":0,"mean":0,"m2":0},"degraded_disconnected":0,)"
         R"("route_stretch":{"count":0,"mean":0,"m2":0},)"
         R"("mttf":{"count":1,"mean":0.25,"m2":0,"min":0.25,"max":0.25},"mttf_censored":0,)"
         R"("collective_rounds":0,"collective_baseline_cycles":0,)"
         R"("collective_slowdown":{"count":0,"mean":0,"m2":0},)"
         R"("collective_hop_cycles":{"count":0,"mean":0,"m2":0},)"
         R"("collective_congestion":{"count":0,"mean":0,"m2":0},"collective_unreachable":0,)"
         R"("bus_fault_count":{"count":0,"mean":0,"m2":0},)"
         R"("traffic_delivered":{"count":0,"mean":0,"m2":0},)"
         R"("traffic_latency":{"count":0,"mean":0,"m2":0},)"
         R"("traffic_congestion":{"count":0,"mean":0,"m2":0},"traffic_timed_out":0,)"
         R"("survival_curve":[],"slowdown_curve":[],)"
         R"("analytic_survival":null,"analytic_mttf":null,"success_rate":0,)"
         R"("success_ci95_lo":0,"success_ci95_hi":0.79345068562276255}})"),
    {0x3a, 0xb2, 0x36, 0x85},
});

std::vector<BlockRecord> block_log_records() {
  BlockRecord first;
  first.cell = 2;
  first.block = 5;
  first.partial.scenario_index = 2;
  first.partial.label = "golden";
  first.partial.target_nodes = 16;
  first.partial.fabric_nodes = 18;
  first.partial.target_diameter = 4;
  first.partial.trials = 3;
  first.partial.reconfig_success = 2;
  first.partial.over_budget = 1;
  for (const double faults : {1.0, 2.0, 3.0}) first.partial.fault_count.add(faults);
  first.partial.survival_curve.push_back({1, 1, 1});

  BlockRecord second;
  second.cell = 0;
  second.block = 1;
  second.partial.label = "tail";
  second.partial.trials = 1;
  second.partial.mttf.add(0.25);
  return {first, second};
}

void expect_same_block(const BlockRecord& got, const BlockRecord& want) {
  EXPECT_EQ(got.cell, want.cell);
  EXPECT_EQ(got.block, want.block);
  EXPECT_EQ(got.partial.scenario_index, want.partial.scenario_index);
  EXPECT_EQ(got.partial.label, want.partial.label);
  EXPECT_EQ(got.partial.target_nodes, want.partial.target_nodes);
  EXPECT_EQ(got.partial.trials, want.partial.trials);
  EXPECT_EQ(got.partial.reconfig_success, want.partial.reconfig_success);
  EXPECT_EQ(got.partial.fault_count.count, want.partial.fault_count.count);
  EXPECT_EQ(got.partial.fault_count.mean, want.partial.fault_count.mean);
  EXPECT_EQ(got.partial.mttf.count, want.partial.mttf.count);
  EXPECT_EQ(got.partial.mttf.mean, want.partial.mttf.mean);
  EXPECT_EQ(got.partial.survival_curve.size(), want.partial.survival_curve.size());
}

TEST(GoldenBytes, JournalRecoversAndReproducesTheFixture) {
  ASSERT_EQ(kJournalFixture.size(), 24u + 4 * 13u);
  const ScratchDir dir("golden-journal");
  const std::string golden = dir.sub("golden.jrn");
  spit(golden, kJournalFixture);
  {
    const Journal j(golden, kJournalFingerprint, false);
    EXPECT_EQ(j.recovered(), kJournalRecords);
    EXPECT_EQ(j.truncated_bytes(), 0u);
    EXPECT_EQ(j.size_bytes(), kJournalFixture.size());
  }
  EXPECT_EQ(slurp(golden), kJournalFixture);  // opening never rewrites

  const std::string fresh = dir.sub("fresh.jrn");
  {
    Journal j(fresh, kJournalFingerprint, false);
    for (const JournalRecord& r : kJournalRecords) j.append(r);
  }
  EXPECT_EQ(slurp(fresh), kJournalFixture);

  // Compaction writes the same bytes as appending the same records.
  const std::string compacted = dir.sub("compacted.jrn");
  {
    Journal j(compacted, kJournalFingerprint, false);
    j.append({JournalOp::kFaultNode, 99, 0});
    j.rewrite(kJournalRecords);
    EXPECT_EQ(j.num_records(), kJournalRecords.size());
  }
  EXPECT_EQ(slurp(compacted), kJournalFixture);
}

TEST(GoldenBytes, BlockLogRecoversAndReproducesTheFixture) {
  ASSERT_EQ(kBlockLogFixture.size(), 24u + (9u + 1131u) + (9u + 1064u));
  const ScratchDir dir("golden-blocklog");
  const std::string golden = dir.sub("golden.blk");
  spit(golden, kBlockLogFixture);
  const std::vector<BlockRecord> want = block_log_records();

  const std::vector<BlockRecord> scanned = BlockLog::read(golden, kBlockLogFingerprint);
  ASSERT_EQ(scanned.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) expect_same_block(scanned[i], want[i]);
  {
    const BlockLog owned(golden, kBlockLogFingerprint, false);
    ASSERT_EQ(owned.recovered().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) expect_same_block(owned.recovered()[i], want[i]);
    EXPECT_EQ(owned.truncated_bytes(), 0u);
  }
  EXPECT_EQ(slurp(golden), kBlockLogFixture);

  const std::string fresh = dir.sub("fresh.blk");
  {
    BlockLog log(fresh, kBlockLogFingerprint, false);
    for (const BlockRecord& r : want) log.append(r);
  }
  EXPECT_EQ(slurp(fresh), kBlockLogFixture);
}

TEST(GoldenBytes, TornBlockLogReadReturnsTheIntactPrefix) {
  const ScratchDir dir("golden-torn");
  const std::string torn = dir.sub("torn.blk");
  const Bytes cut(kBlockLogFixture.begin(), kBlockLogFixture.end() - 3);
  spit(torn, cut);

  const std::vector<BlockRecord> scanned = BlockLog::read(torn, kBlockLogFingerprint);
  ASSERT_EQ(scanned.size(), 1u);
  expect_same_block(scanned[0], block_log_records()[0]);
  EXPECT_EQ(fs::file_size(torn), cut.size());
  EXPECT_EQ(slurp(torn), cut);
}

// --- corrupt-frame policy ---------------------------------------------------

TEST(FramedLog, CrcCleanUnknownJournalOpIsRefusedNotTruncated) {
  const ScratchDir dir("unknown-op");
  const std::string path = dir.sub("j.jrn");
  {
    // Raw journal-shaped frames: FramedLog frames bodies it never interprets,
    // so it can write a CRC-valid op-9 frame followed by a valid record.
    const FramedLog::Format journal_frames{
        "test", {'F', 'T', 'D', 'B', 'J', 'R', 'N', '1'}, 0,
        [](const unsigned char*) -> std::size_t { return 9; }};
    FramedLog raw(journal_frames, path, kJournalFingerprint, false,
                  [](std::span<const unsigned char>) {});
    raw.append(Bytes{9, 1, 0, 0, 0, 0, 0, 0, 0});
    raw.append(Bytes{1, 7, 0, 0, 0, 0, 0, 0, 0});
  }
  const Bytes before = slurp(path);
  ASSERT_EQ(before.size(), 24u + 2 * 13u);
  EXPECT_THROW(Journal(path, kJournalFingerprint, false), serve::CorruptLogError);
  EXPECT_EQ(slurp(path), before);  // nothing truncated
}

// --- failure injection ------------------------------------------------------

TEST(FramedLog, FailedConstructionClosesItsDescriptor) {
  const ScratchDir dir("fd-leak");
  const std::size_t before = open_fds();
  bool journal_threw = false;
  bool block_log_threw = false;
  {
    // A fresh log writes a 24-byte header: 10 bytes land, then EFBIG.
    const FileSizeLimit limit(10);
    try {
      const Journal j(dir.sub("j.jrn"), kJournalFingerprint, false);
    } catch (const std::runtime_error&) {
      journal_threw = true;
    }
    try {
      const BlockLog log(dir.sub("b.blk"), kBlockLogFingerprint, false);
    } catch (const std::runtime_error&) {
      block_log_threw = true;
    }
  }
  EXPECT_TRUE(journal_threw);
  EXPECT_TRUE(block_log_threw);
  EXPECT_EQ(open_fds(), before);

  // The failed create left an empty file, not a partial header, so once the
  // limit is lifted a reopen creates the log as if it never failed.
  const Journal j(dir.sub("j.jrn"), kJournalFingerprint, false);
  EXPECT_TRUE(j.recovered().empty());
  EXPECT_EQ(fs::file_size(dir.sub("j.jrn")), 24u);
  const BlockLog log(dir.sub("b.blk"), kBlockLogFingerprint, false);
  EXPECT_TRUE(log.recovered().empty());
  EXPECT_EQ(fs::file_size(dir.sub("b.blk")), 24u);
}

TEST(BlockLog, HostileNumbersInACleanFrameAreCorruption) {
  // CRC-clean frames (written through a FramedLog with the block log's
  // layout) whose payload numbers no static_cast may touch: each must be a
  // typed error that names the field, never undefined behaviour.
  const ScratchDir dir("hostile");
  const FramedLog::Format format{
      "BlockLog", {'F', 'T', 'D', 'B', 'B', 'L', 'K', '1'}, 5,
      [](const unsigned char* p) -> std::size_t {
        return 5 + (static_cast<std::size_t>(p[1]) | static_cast<std::size_t>(p[2]) << 8);
      }};
  const std::vector<std::string> payloads = {
      R"({"cell":-1,"block":0,"partial":{}})",
      R"({"cell":1e30,"block":0,"partial":{}})",
      R"({"cell":0.5,"block":0,"partial":{}})",
      R"({"cell":0,"block":"zero","partial":{}})",
  };
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const std::string path = dir.sub("h" + std::to_string(i) + ".blk");
    {
      FramedLog raw(format, path, kBlockLogFingerprint, false, [](auto) {});
      Bytes body = {1, static_cast<unsigned char>(payloads[i].size()), 0, 0, 0};
      body.insert(body.end(), payloads[i].begin(), payloads[i].end());
      raw.append(body);
    }
    try {
      BlockLog::read(path, kBlockLogFingerprint);
      ADD_FAILURE() << "accepted " << payloads[i];
    } catch (const serve::CorruptLogError& e) {
      const std::string field = i < 3 ? "\"cell\"" : "\"block\"";
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
}

TEST(FramedLog, FailedAppendRollsBackToTheAcknowledgedRecords) {
  // Both owners' frame layouts: fixed 9-byte bodies (journal) and
  // type + u32-length-prefixed bodies (block log).
  const FramedLog::Format fixed{"fixed", {'T', 'E', 'S', 'T', 'F', 'I', 'X', '1'}, 0,
                                [](const unsigned char*) -> std::size_t { return 9; }};
  const FramedLog::Format prefixed{
      "prefixed", {'T', 'E', 'S', 'T', 'L', 'E', 'N', '1'}, 5,
      [](const unsigned char* p) -> std::size_t {
        return 5 + (static_cast<std::size_t>(p[1]) | static_cast<std::size_t>(p[2]) << 8);
      }};
  const auto body_for = [](const FramedLog::Format& format, unsigned char tag) {
    if (format.length_prefix == 0) return Bytes{tag, 1, 2, 3, 4, 5, 6, 7, 8};
    return Bytes{1, 8, 0, 0, 0, tag, 1, 2, 3, 4, 5, 6, 7};
  };

  const ScratchDir dir("rollback");
  for (const FramedLog::Format* format : {&fixed, &prefixed}) {
    SCOPED_TRACE(format->name);
    const std::string path = dir.sub(std::string(format->name) + ".log");
    std::vector<Bytes> acknowledged;
    FramedLog log(*format, path, 42, /*fsync=*/true, [](std::span<const unsigned char>) {});
    for (unsigned char tag : {10, 11}) {
      log.append(body_for(*format, tag));
      acknowledged.push_back(body_for(*format, tag));
    }
    const std::size_t length = log.size_bytes();

    bool threw = false;
    {
      // Room for 5 of the frame's 13+ bytes: a short write, then EFBIG.
      const FileSizeLimit limit(length + 5);
      try {
        log.append(body_for(*format, 12));
      } catch (const std::runtime_error&) {
        threw = true;
      }
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(fs::file_size(path), length);
    EXPECT_EQ(log.size_bytes(), length);
    EXPECT_EQ(log.num_frames(), acknowledged.size());

    // The handle was not poisoned: the next append lands where the failed
    // one was rolled back from.
    log.append(body_for(*format, 13));
    acknowledged.push_back(body_for(*format, 13));

    std::vector<Bytes> recovered;
    const FramedLog reopened(*format, path, 42, false, [&](std::span<const unsigned char> body) {
      recovered.emplace_back(body.begin(), body.end());
    });
    EXPECT_EQ(reopened.truncated_bytes(), 0u);
    EXPECT_EQ(recovered, acknowledged);
  }
}

TEST(FramedLog, RewriteFailsWhenTheDirectoryCannotBeSynced) {
  // A directory its writer may write and search but not read: the compacted
  // file is written and renamed over the log, but the directory cannot be
  // opened to flush the rename. The rewrite must say so, and the object must
  // already describe the renamed file. Root ignores permission bits, so the
  // check runs in a child that drops to an unprivileged uid when it can.
  const FramedLog::Format fixed{"fixed", {'T', 'E', 'S', 'T', 'F', 'I', 'X', '1'}, 0,
                                [](const unsigned char*) -> std::size_t { return 9; }};
  const auto body = [](unsigned char tag) { return Bytes{tag, 1, 2, 3, 4, 5, 6, 7, 8}; };
  const ScratchDir dir("wx-only");
  const std::string path = dir.sub("compacted.log");
  ASSERT_EQ(::chmod(dir.path.c_str(), 0333), 0);
  const pid_t child = ::fork();
  if (child == 0) {
    if (::geteuid() == 0 && ::setuid(65534) != 0) ::_exit(2);
    int code = 0;
    try {
      FramedLog log(fixed, path, 42, false, [](std::span<const unsigned char>) {});
      for (unsigned char tag : {10, 11, 12}) log.append(body(tag));
      try {
        log.rewrite({body(20)});
        code = 3;
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()).find("directory") == std::string::npos) code = 4;
      }
      if (code == 0 && (log.num_frames() != 1 || log.size_bytes() != 24u + 13u)) code = 5;
      if (code == 0) {
        // The next append lands in the renamed file, after the kept frame.
        log.append(body(21));
        std::vector<Bytes> frames;
        FramedLog::scan(fixed, path, 42, [&](std::span<const unsigned char> b) {
          frames.emplace_back(b.begin(), b.end());
        });
        if (frames != std::vector<Bytes>{body(20), body(21)}) code = 6;
      }
    } catch (const std::exception&) {
      code = 7;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ::chmod(dir.path.c_str(), 0755);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == 2) GTEST_SKIP() << "cannot drop root privileges here";
  // 3: the rewrite claimed success; 4: it threw without naming the
  // directory; 5: the object does not describe the renamed file; 6: the
  // file holds the wrong frames; 7: an unexpected throw.
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace ftdb
