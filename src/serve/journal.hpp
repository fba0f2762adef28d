// Crash-recoverable fault journal for the always-on reconfiguration service.
//
// The journal is the service's only durable state: an append-only binary log
// of validated fault/repair events, written *before* each event is applied
// (write-ahead), so replaying the log through the same deterministic
// reconfiguration pipeline reconstructs the exact pre-crash machine state —
// embedding, retired set, and incrementally-patched router alike.
//
// On-disk format: a serve/framed_log.hpp log (all integers little-endian)
// with magic "FTDBJRN1", the ServeConfig fingerprint in the header, and
// fixed 13-byte frames:
//
//     op        u8       JournalOp
//     a         u32      primary node (fault victim / bus driver / repair)
//     b         u32      secondary node (link's second endpoint; else 0)
//     crc       u32      CRC-32 of the preceding 9 bytes
//
// A crash can only tear the final record (appends are sequential); open()
// truncates any tail whose frame is short or whose CRC fails and reports the
// dropped byte count. A CRC-clean frame with an unknown op is corruption:
// open() throws serve::CorruptLogError and leaves the file untouched. Each
// append is optionally fsync'd, which bounds loss to events the caller was
// never told were durable.
//
// `rewrite()` implements checkpoint compaction: the full log is replaced by
// an equivalent minimal one (temp file + fsync + atomic rename), so the log's
// length tracks the number of *outstanding* faults, not service lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/framed_log.hpp"

namespace ftdb::serve {

enum class JournalOp : std::uint8_t {
  kFaultNode = 1,
  kFaultLink = 2,
  kFaultBus = 3,
  kRepair = 4,
};

struct JournalRecord {
  JournalOp op = JournalOp::kFaultNode;
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  bool operator==(const JournalRecord&) const = default;
};

class Journal {
 public:
  /// Opens (creating if absent) the journal at `path`. An existing file must
  /// carry a valid header with this `fingerprint`; a torn tail is truncated
  /// away. Throws std::runtime_error on I/O failure or fingerprint mismatch,
  /// and CorruptLogError (a std::runtime_error) on a corrupt header or a
  /// CRC-clean record it cannot decode.
  Journal(std::string path, std::uint64_t fingerprint, bool fsync_writes);

  /// Records recovered from the existing file at open time.
  const std::vector<JournalRecord>& recovered() const { return recovered_; }

  /// Bytes dropped from a torn tail at open time (0 for a clean log).
  std::size_t truncated_bytes() const { return log_.truncated_bytes(); }

  /// Appends one record (and fsyncs, when enabled). The record is durable
  /// when this returns.
  void append(const JournalRecord& record);

  /// Atomically replaces the log body with `records` (checkpoint
  /// compaction): writes header + records to a temp file, fsyncs it, and
  /// renames it over the journal.
  void rewrite(const std::vector<JournalRecord>& records);

  /// Records currently in the file (recovered + appended - compacted away).
  std::size_t num_records() const { return log_.num_frames(); }

  /// Current file size in bytes.
  std::size_t size_bytes() const { return log_.size_bytes(); }

  const std::string& path() const { return log_.path(); }

 private:
  std::vector<JournalRecord> recovered_;  // filled while log_ opens
  FramedLog log_;
};

}  // namespace ftdb::serve
