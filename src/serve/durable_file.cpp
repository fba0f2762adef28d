#include "serve/durable_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ftdb::serve {
namespace {

[[noreturn]] void fail(const char* step, const std::string& path) {
  const int err = errno;
  throw std::runtime_error(std::string(step) + " " + path + ": " + std::strerror(err));
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash + 1);
}

void refuse_non_regular(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    throw std::runtime_error("cannot replace " + path + ": not a regular file");
  }
}

}  // namespace

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

UniqueFd open_file(const std::string& path, int flags) {
  UniqueFd fd(::open(path.c_str(), flags | O_CLOEXEC, 0644));
  if (!fd) fail("cannot open", path);
  return fd;
}

std::string read_file(const std::string& path) {
  const UniqueFd fd = open_file(path, O_RDONLY);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd.get(), buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      fail("read failed for", path);
    }
    if (r == 0) return bytes;
    bytes.append(buf, static_cast<std::size_t>(r));
  }
}

void write_all(int fd, const void* data, std::size_t len, const std::string& path) {
  const char* at = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t w = ::write(fd, at, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      fail("write failed for", path);
    }
    at += w;
    len -= static_cast<std::size_t>(w);
  }
}

void sync_file(int fd, const std::string& path) {
  if (::fsync(fd) != 0) fail("fsync failed for", path);
}

void sync_parent_dir(const std::string& path) {
  const std::string dir = parent_dir(path);
  const UniqueFd fd(::open(dir.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd) fail("cannot open directory", dir);
  if (::fsync(fd.get()) != 0) fail("fsync failed for directory", dir);
}

UniqueFd write_new_file(const std::string& path, std::string_view bytes, bool sync) {
  UniqueFd fd = open_file(path, O_RDWR | O_CREAT | O_TRUNC);
  write_all(fd.get(), bytes.data(), bytes.size(), path);
  if (sync) sync_file(fd.get(), path);
  return fd;
}

void write_file_atomically(const std::string& path, std::string_view bytes, bool durable,
                           UniqueFd* renamed) {
  refuse_non_regular(path);
  const std::string tmp = path + ".tmp";
  UniqueFd fd = write_new_file(tmp, bytes, durable);
  if (renamed == nullptr && ::close(fd.release()) != 0) fail("close failed for", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail("cannot rename", tmp + " -> " + path);
  if (renamed != nullptr) *renamed = std::move(fd);
  if (durable) sync_parent_dir(path);
}

void check_replaceable(const std::string& path) {
  refuse_non_regular(path);
  // The temp file is created next to `path`: the failure its open would
  // meet, with its message.
  if (::access(parent_dir(path).c_str(), W_OK | X_OK) != 0) fail("cannot open", path + ".tmp");
}

}  // namespace ftdb::serve
