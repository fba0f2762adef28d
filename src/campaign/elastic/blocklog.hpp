// Append-only block-log checkpoints for the elastic campaign service.
//
// Each elastic worker owns one log file and appends one record per trial
// block it completes, fsync'd before the block is announced anywhere — so a
// worker that dies loses at most the block it was computing, and crash
// replay is bounded by the blocks appended since the last compaction.
//
// On-disk format "ftdb-campaign-blocklog-v1": a serve/framed_log.hpp log
// (all integers little-endian; the same implementation as the serve
// journal) with magic "FTDBBLK1", the campaign's spec_fingerprint in the
// header, and variable-length frames:
//
//   record:
//     type         u8       1 (completed trial block)
//     payload_len  u32      byte length of the JSON payload
//     payload      bytes    {"cell": c, "block": b, "partial": {...}} where
//                           "partial" is the block's ScenarioResult in the
//                           checkpoint serialization (write_scenario_result;
//                           %.17g doubles round-trip bit-exactly)
//     crc          u32      CRC-32 of type + payload_len + payload
//
// A crash can only tear the final record (appends are sequential). The
// *owning* open truncates a torn tail; the read-only scan used on other
// workers' logs never truncates — a torn tail there is usually an append in
// flight on a live worker. A CRC-clean record that does not decode is
// corruption, refused with serve::CorruptLogError. Appends roll back on
// failure and poison the handle, so the file length is always frame-aligned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "serve/framed_log.hpp"

namespace ftdb::campaign::elastic {

/// One completed trial block of one grid cell.
struct BlockRecord {
  std::uint64_t cell = 0;
  std::uint64_t block = 0;
  ScenarioResult partial;
};

class BlockLog {
 public:
  /// Opens (creating if absent) the log at `path` for appending. An existing
  /// file must carry a valid header with this `fingerprint`; a torn tail is
  /// truncated away. Throws std::runtime_error on I/O failure, corruption,
  /// or fingerprint mismatch.
  BlockLog(std::string path, std::uint64_t fingerprint, bool fsync_writes);

  /// Records recovered from the existing file at open time.
  const std::vector<BlockRecord>& recovered() const { return recovered_; }

  /// Bytes dropped from a torn tail at open time (0 for a clean log).
  std::size_t truncated_bytes() const { return log_.truncated_bytes(); }

  /// Appends one record (and fsyncs, when enabled). Durable when it returns.
  void append(const BlockRecord& record);

  /// Drops every record but keeps the header (atomically, by renaming a
  /// header-only copy over the log) — what compaction does to its own log
  /// once the records are folded into the compacted checkpoint.
  void truncate_all();

  std::size_t num_records() const { return log_.num_frames(); }
  std::size_t size_bytes() const { return log_.size_bytes(); }
  const std::string& path() const { return log_.path(); }

  /// Read-only scan of a (possibly live) log: validates the header, returns
  /// every intact record, and NEVER truncates the file. Throws on a missing
  /// or corrupt header or a fingerprint mismatch.
  static std::vector<BlockRecord> read(const std::string& path, std::uint64_t fingerprint);

 private:
  std::vector<BlockRecord> recovered_;  // filled while log_ opens
  serve::FramedLog log_;
};

}  // namespace ftdb::campaign::elastic
