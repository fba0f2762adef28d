#include "campaign/elastic/lease.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "analysis/bench_json.hpp"
#include "serve/durable_file.hpp"

namespace ftdb::campaign::elastic {
namespace {

using analysis::JsonValue;
using analysis::JsonWriter;

[[noreturn]] void io_fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("lease: " + what + " failed for " + path + ": " +
                           std::strerror(errno));
}

std::string host_name() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof buf - 1) != 0) return "unknown-host";
  return buf;
}

/// True when `stamp` names `worker_id` on this host and a process that no
/// longer exists: a rerun of a killed worker under the same id takes its
/// own lease back without waiting out the TTL. EPERM from kill(2) means the
/// pid belongs to a live process we may not signal, so only ESRCH counts.
bool own_dead_stamp(const LeaseStamp& stamp, const std::string& worker_id) {
  return stamp.worker == worker_id && stamp.host == host_name() && stamp.pid > 0 &&
         ::kill(static_cast<pid_t>(stamp.pid), 0) != 0 && errno == ESRCH;
}

/// True when the file at `path` exists, is the inode we recorded, AND still
/// carries the exact stamp bytes we last wrote. The content check matters:
/// after a reclaim the filesystem is free to hand the thief's fresh lease
/// file our just-released inode number, so (dev, ino) alone can lie.
bool still_ours(const std::string& path, std::uint64_t dev, std::uint64_t ino,
                const std::string& stamp_text) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return false;
  if (static_cast<std::uint64_t>(st.st_dev) != dev ||
      static_cast<std::uint64_t>(st.st_ino) != ino) {
    return false;
  }
  try {
    return serve::read_file(path) == stamp_text;
  } catch (const std::runtime_error&) {
    return false;
  }
}

}  // namespace

std::uint64_t lease_now_secs() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::seconds>(now).count());
}

std::string lease_stamp_json(const LeaseStamp& stamp) {
  JsonWriter w;
  w.begin_object();
  w.key("worker").value(stamp.worker);
  w.key("pid").value(static_cast<std::uint64_t>(stamp.pid < 0 ? 0 : stamp.pid));
  w.key("host").value(stamp.host);
  w.key("heartbeat_secs").value(stamp.heartbeat_secs);
  w.key("ttl_secs").value(stamp.ttl_secs);
  w.end_object();
  return w.str();
}

std::optional<LeaseStamp> read_lease(const std::string& path) {
  try {
    const JsonValue doc = analysis::json_parse(serve::read_file(path));
    LeaseStamp stamp;
    stamp.worker = doc.at("worker").string;
    stamp.pid = static_cast<std::int64_t>(analysis::json_uint_at(doc, "pid"));
    stamp.host = doc.at("host").string;
    stamp.heartbeat_secs = analysis::json_uint_at(doc, "heartbeat_secs");
    stamp.ttl_secs = analysis::json_uint_at(doc, "ttl_secs");
    return stamp;
  } catch (const std::exception&) {
    return std::nullopt;  // missing or garbled stamp: treated like a stale lease by claimants
  }
}

Lease::~Lease() {
  if (!held_) return;
  try {
    release();
  } catch (...) {
    // Destructor cleanup is best-effort; an unreleased lease just ages out.
  }
}

Lease::Lease(Lease&& other) noexcept
    : path_(std::move(other.path_)),
      worker_(std::move(other.worker_)),
      ttl_secs_(other.ttl_secs_),
      held_(other.held_),
      dev_(other.dev_),
      ino_(other.ino_),
      stamp_text_(std::move(other.stamp_text_)) {
  other.held_ = false;
}

Lease& Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (held_) {
      try {
        release();
      } catch (...) {
      }
    }
    path_ = std::move(other.path_);
    worker_ = std::move(other.worker_);
    ttl_secs_ = other.ttl_secs_;
    held_ = other.held_;
    dev_ = other.dev_;
    ino_ = other.ino_;
    stamp_text_ = std::move(other.stamp_text_);
    other.held_ = false;
  }
  return *this;
}

void Lease::heartbeat() {
  if (!held_) return;
  LeaseStamp stamp;
  stamp.worker = worker_;
  stamp.pid = static_cast<std::int64_t>(::getpid());
  stamp.host = host_name();
  stamp.heartbeat_secs = lease_now_secs();
  stamp.ttl_secs = ttl_secs_;

  const std::string tmp = path_ + "." + worker_ + ".hb";
  const std::string text = lease_stamp_json(stamp);
  // The written inode is the identity witness checked on every heartbeat.
  struct stat written {};
  if (::fstat(serve::write_new_file(tmp, text, true).get(), &written) != 0) io_fail("fstat", tmp);
  if (!still_ours(path_, dev_, ino_, stamp_text_)) {
    ::unlink(tmp.c_str());
    held_ = false;
    throw LeaseLost(path_);
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    io_fail("rename", path_);
  }
  dev_ = written.st_dev;
  ino_ = written.st_ino;
  stamp_text_ = text;
}

void Lease::release() {
  if (!held_) return;
  held_ = false;
  if (still_ours(path_, dev_, ino_, stamp_text_)) ::unlink(path_.c_str());
}

Lease Lease::try_acquire(const std::string& path, const std::string& worker_id,
                         std::uint64_t ttl_secs, bool* reclaimed) {
  if (reclaimed != nullptr) *reclaimed = false;

  // Two rounds: a first claim attempt, then (after at most one reclaim of a
  // stale holder) a second. Losing both means live contention — report
  // not-held and let the caller move on to another cell.
  for (int round = 0; round < 2; ++round) {
    LeaseStamp stamp;
    stamp.worker = worker_id;
    stamp.pid = static_cast<std::int64_t>(::getpid());
    stamp.host = host_name();
    stamp.heartbeat_secs = lease_now_secs();
    stamp.ttl_secs = ttl_secs;

    const std::string tmp = path + "." + worker_id + ".tmp";
    const std::string text = lease_stamp_json(stamp);
    struct stat written {};
    if (::fstat(serve::write_new_file(tmp, text, true).get(), &written) != 0) io_fail("fstat", tmp);

    if (::link(tmp.c_str(), path.c_str()) == 0) {
      ::unlink(tmp.c_str());
      Lease lease;
      lease.path_ = path;
      lease.worker_ = worker_id;
      lease.ttl_secs_ = ttl_secs;
      lease.held_ = true;
      lease.dev_ = written.st_dev;
      lease.ino_ = written.st_ino;
      lease.stamp_text_ = text;
      return lease;
    }
    const int link_errno = errno;
    ::unlink(tmp.c_str());
    if (link_errno != EEXIST) {
      errno = link_errno;
      io_fail("link", path);
    }

    // Held. Stale or garbled stamps are reclaimable, and so is our own
    // stamp from a process that is gone; other fresh ones are not.
    const std::optional<LeaseStamp> holder = read_lease(path);
    if (holder.has_value() && lease_now_secs() < holder->heartbeat_secs + holder->ttl_secs &&
        !own_dead_stamp(*holder, worker_id)) {
      return {};  // live holder
    }
    // ENOENT from read_lease: the holder released between our link and the
    // read — just retry the claim (no reclaim happened).
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) continue;

    // Atomic takeover: exactly one reclaimer wins the rename.
    const std::string relic = path + "." + worker_id + ".reclaim";
    if (::rename(path.c_str(), relic.c_str()) == 0) {
      ::unlink(relic.c_str());
      if (reclaimed != nullptr) *reclaimed = true;
    }
    // Lost the takeover race (ENOENT) or won it: either way the path may now
    // be free — loop for one more claim attempt.
  }
  return {};
}

}  // namespace ftdb::campaign::elastic
