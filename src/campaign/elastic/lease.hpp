// Shard leasing for the elastic campaign service.
//
// A lease is one file in the shared checkpoint directory whose *existence*
// means "some worker is running this cell" and whose JSON stamp says who and
// how recently. Coordination uses only POSIX primitives that are atomic on
// a shared filesystem:
//
//   claim      write the stamp to a private temp file, then link(2) it at the
//              lease path — link fails with EEXIST when the lease is held, so
//              exactly one claimant wins.
//   heartbeat  write a refreshed stamp to a temp file and rename(2) it over
//              the lease. Before renaming, the holder stats the lease and
//              compares the inode it recorded at claim time *and* the stamp
//              bytes it last wrote (inodes get recycled): any mismatch (or
//              ENOENT) means another worker reclaimed us.
//   reclaim    a claimant that finds a stamp whose heartbeat is older than
//              its TTL rename(2)s the lease aside to a takeover relic —
//              rename is atomic, so exactly one reclaimer wins (the losers
//              see ENOENT) — unlinks the relic, and claims normally. A
//              stamp with the claimant's own worker id and host whose pid
//              is dead (kill(pid, 0) fails with ESRCH) is reclaimed the same
//              way at once: a killed worker rerun under its id need not wait
//              out the TTL.
//
// The protocol has benign TOCTOU windows (e.g. a holder heartbeats in the
// instant between a reclaimer's staleness check and its rename). They are
// accepted by design: the worst case is two workers computing the same
// trial block, and campaign blocks are counter-based deterministic, so the
// duplicates are byte-identical and deduped at merge time. Leases are a
// performance mechanism; correctness never depends on mutual exclusion.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace ftdb::campaign::elastic {

/// The JSON stamp inside a lease file.
struct LeaseStamp {
  std::string worker;
  std::int64_t pid = 0;
  std::string host;
  std::uint64_t heartbeat_secs = 0;  ///< unix seconds of the last heartbeat
  std::uint64_t ttl_secs = 0;        ///< staleness horizon the holder asked for
};

std::string lease_stamp_json(const LeaseStamp& stamp);

/// Reads and parses a lease file. nullopt when the file does not exist *or*
/// does not parse as a stamp — a garbled lease can never heartbeat, so
/// claimants treat it exactly like a stale one.
std::optional<LeaseStamp> read_lease(const std::string& path);

/// Unix seconds of the wall clock (the time base of every heartbeat).
std::uint64_t lease_now_secs();

/// Thrown by Lease::heartbeat when the lease file is no longer the one this
/// holder created — another worker reclaimed it after a TTL expiry.
struct LeaseLost : std::runtime_error {
  explicit LeaseLost(const std::string& path)
      : std::runtime_error("lease lost: " + path + " was reclaimed by another worker") {}
};

/// RAII handle on one lease file. Default-constructed (or move-from) handles
/// hold nothing; the destructor releases a held lease best-effort.
class Lease {
 public:
  Lease() = default;
  ~Lease();

  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  Lease(Lease&& other) noexcept;
  Lease& operator=(Lease&& other) noexcept;

  bool held() const { return held_; }
  const std::string& path() const { return path_; }

  /// Re-stamps the lease with a fresh heartbeat. Throws LeaseLost when the
  /// file at the lease path is no longer ours; throws std::runtime_error on
  /// I/O failure.
  void heartbeat();

  /// Removes the lease file if it is still ours (a reclaimed lease is simply
  /// dropped — it now belongs to someone else). Idempotent.
  void release();

  /// Drops ownership WITHOUT unlinking the file — what a crashed worker
  /// leaves behind. Used by the crash-simulation hook and by heartbeat-lost
  /// paths; the abandoned file is reclaimed by the next claimant after TTL,
  /// or sooner by the same worker id once this process is gone.
  void abandon() { held_ = false; }

  /// Attempts to claim `path` for `worker_id`. Returns a non-held Lease when
  /// a live worker holds it; reclaims first (and sets *reclaimed) when the
  /// current stamp is stale or garbled, or names `worker_id` on this host
  /// with a dead pid. Throws std::runtime_error on I/O failure.
  static Lease try_acquire(const std::string& path, const std::string& worker_id,
                           std::uint64_t ttl_secs, bool* reclaimed = nullptr);

 private:
  std::string path_;
  std::string worker_;
  std::uint64_t ttl_secs_ = 0;
  bool held_ = false;
  std::uint64_t dev_ = 0;  ///< st_dev of the stamp we linked/renamed into place
  std::uint64_t ino_ = 0;  ///< st_ino of same — the "is it still ours" witness
  /// The exact stamp bytes we last wrote. The inode pair alone is not a safe
  /// identity witness: the filesystem can recycle a freed inode for the
  /// reclaimer's new lease file, so ownership checks also compare content.
  std::string stamp_text_;
};

}  // namespace ftdb::campaign::elastic
