// The one place the library reads a file whole, calls write(2) or fsync(2),
// or replaces a file by rename(2): journal, block logs, checkpoints, lease
// stamps, reports and bench JSON all go through here. Every step throws
// std::runtime_error naming the step and the path. Messages are built only
// on failure: write_all and sync_file allocate nothing when they succeed.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

namespace ftdb::serve {

/// An owned file descriptor, closed on destruction.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    reset(other.release());
    return *this;
  }
  ~UniqueFd() { reset(); }

  int get() const { return fd_; }
  explicit operator bool() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  /// Closes the held descriptor, ignoring close errors, and holds `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// open(2) with `flags` | O_CLOEXEC, mode 0644 on create.
UniqueFd open_file(const std::string& path, int flags);

std::string read_file(const std::string& path);

/// Writes all `len` bytes, retrying short writes and EINTR.
void write_all(int fd, const void* data, std::size_t len, const std::string& path);

void sync_file(int fd, const std::string& path);

/// fsync(2) on the directory holding `path`: a create or a rename is durable
/// only once its directory entry is.
void sync_parent_dir(const std::string& path);

/// Creates or truncates `path` and writes `bytes`, fsynced when `sync`.
/// Returns the read-write descriptor.
UniqueFd write_new_file(const std::string& path, std::string_view bytes, bool sync);

/// Replaces `path` with `bytes` through `path + ".tmp"` and rename(2), so a
/// reader sees the old bytes or all the new ones. When `durable`, the temp
/// file is fsynced before the rename and the directory after it. Refuses an
/// existing `path` that is not a regular file (a FIFO or a device node).
///
/// Without `renamed`, the temp file is closed before the rename, so that a
/// deferred write error fails the replace. With it, `*renamed` takes the
/// renamed file's read-write descriptor before the directory sync, so the
/// caller holds the new file even when that sync throws.
void write_file_atomically(const std::string& path, std::string_view bytes, bool durable,
                           UniqueFd* renamed = nullptr);

/// Throws, with write_file_atomically's message, when `path` is certain to
/// fail it: an existing `path` that is not a regular file, or a directory
/// that cannot take the temp file (missing, not writable). Writes nothing;
/// lets a long computation refuse its output path before it starts.
void check_replaceable(const std::string& path);

}  // namespace ftdb::serve
