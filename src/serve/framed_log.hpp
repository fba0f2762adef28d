// One append-only, CRC-framed, crash-recoverable log file — the single
// implementation behind every binary log in the library (the serve fault
// journal, serve/journal.*, and the elastic campaign block logs,
// campaign/elastic/blocklog.*).
//
// On-disk layout (all integers little-endian):
//
//   header (24 bytes):
//     magic        8 bytes  owner-chosen, e.g. "FTDBJRN1"
//     version      u32      1
//     fingerprint  u64      the owner's configuration fingerprint — a log
//                           replayed against a different configuration would
//                           silently diverge, so mismatches are refused
//     crc          u32      CRC-32 of the preceding 20 bytes
//
//   frame (repeated):
//     body         bytes    owner-encoded; its length is read from the first
//                           `length_prefix` body bytes (or is fixed)
//     crc          u32      CRC-32 (IEEE 802.3) of the body
//
// A crash can only tear the final frame (appends are sequential). The owning
// open truncates a torn tail — a frame that is short or fails its CRC — and
// reports the dropped byte count; the read-only scan() never truncates (a
// torn tail there is usually an append in flight on a live writer). A
// CRC-clean frame the owner cannot decode is corruption, not a torn append:
// both throw CorruptLogError and leave the file untouched. A failed append
// rolls the file back to its pre-append length, and poisons the handle if
// that rollback fails, so the file length is always frame-aligned and a
// replay never sees a record whose append the caller saw fail.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ftdb::serve {

/// A log whose header or CRC-clean frames cannot be decoded.
class CorruptLogError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FramedLog {
 public:
  /// What an owner contributes: its magic and how to find a frame's body
  /// length. `body_length` sees the first `length_prefix` bytes of a frame
  /// (0 for fixed-size bodies).
  struct Format {
    const char* name;  // error-message prefix, e.g. "Journal"
    std::array<char, 8> magic;
    std::size_t length_prefix;
    std::size_t (*body_length)(const unsigned char* prefix);
  };

  /// Receives one intact frame body; throwing marks the log corrupt.
  using FrameVisitor = std::function<void(std::span<const unsigned char> body)>;

  /// Opens (creating if absent) the log at `path` for appending, visiting
  /// every intact frame in order and truncating a torn tail. A fresh file
  /// gets a header. Throws CorruptLogError on a bad header or undecodable
  /// frame, std::runtime_error on I/O failure or fingerprint mismatch; the
  /// file descriptor is closed on every throw.
  FramedLog(const Format& format, std::string path, std::uint64_t fingerprint,
            bool fsync_writes, const FrameVisitor& visit);
  ~FramedLog();

  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Appends one frame (and fsyncs, when enabled): durable when it returns.
  void append(std::span<const unsigned char> body);

  /// Atomically replaces the log with header + `bodies` (compaction): writes
  /// a temp file, fsyncs it, renames it over the log and fsyncs the
  /// directory. Throws std::runtime_error when any step fails. A failed
  /// directory sync throws after the rename: the object then already
  /// describes the new file, whose rename may not survive a crash.
  void rewrite(const std::vector<std::vector<unsigned char>>& bodies);

  /// Bytes dropped from a torn tail at open time (0 for a clean log).
  std::size_t truncated_bytes() const { return truncated_; }
  std::size_t num_frames() const { return num_frames_; }
  std::size_t size_bytes() const { return size_bytes_; }
  const std::string& path() const { return path_; }

  /// Read-only scan of a (possibly live) log: validates the header, visits
  /// every intact frame, and never modifies the file.
  static void scan(const Format& format, const std::string& path, std::uint64_t fingerprint,
                   const FrameVisitor& visit);

 private:
  Format format_;
  std::string path_;
  std::uint64_t fingerprint_ = 0;
  bool fsync_ = true;
  int fd_ = -1;
  std::size_t truncated_ = 0;
  std::size_t num_frames_ = 0;
  std::size_t size_bytes_ = 0;
  std::vector<unsigned char> frame_;  // append scratch, reused
};

}  // namespace ftdb::serve
