#include "serve/framed_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace ftdb::serve {
namespace {

constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kCrcBytes = 4;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `len` bytes.
std::uint32_t crc32(const unsigned char* bytes, std::size_t len) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void put_u32(unsigned char* out, std::uint32_t v) {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) | (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) | (static_cast<std::uint32_t>(in[3]) << 24);
}

std::string error_text(const FramedLog::Format& format, const std::string& what) {
  return std::string(format.name) + ": " + what;
}

std::string errno_text(const FramedLog::Format& format, const std::string& what) {
  return error_text(format, what + ": " + std::strerror(errno));
}

void encode_header(unsigned char* out, const FramedLog::Format& format,
                   std::uint64_t fingerprint) {
  std::memcpy(out, format.magic.data(), format.magic.size());
  put_u32(out + 8, kVersion);
  put_u32(out + 12, static_cast<std::uint32_t>(fingerprint));
  put_u32(out + 16, static_cast<std::uint32_t>(fingerprint >> 32));
  put_u32(out + 20, crc32(out, 20));
}

/// Appends body + CRC to `out`.
void encode_frame(std::vector<unsigned char>& out, std::span<const unsigned char> body) {
  const std::size_t at = out.size();
  out.resize(at + body.size() + kCrcBytes);
  std::memcpy(out.data() + at, body.data(), body.size());
  put_u32(out.data() + at + body.size(), crc32(body.data(), body.size()));
}

void write_all(int fd, const unsigned char* data, std::size_t len,
               const FramedLog::Format& format, const std::string& path) {
  while (len > 0) {
    const ssize_t w = ::write(fd, data, len);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(errno_text(format, "write failed for " + path));
    }
    data += w;
    len -= static_cast<std::size_t>(w);
  }
}

std::vector<unsigned char> read_all(int fd, const FramedLog::Format& format,
                                    const std::string& path) {
  std::vector<unsigned char> bytes;
  unsigned char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(errno_text(format, "read failed for " + path));
    }
    if (r == 0) return bytes;
    bytes.insert(bytes.end(), buf, buf + r);
  }
}

void fsync_or_throw(int fd, const FramedLog::Format& format, const std::string& path) {
  if (::fsync(fd) != 0) throw std::runtime_error(errno_text(format, "fsync failed for " + path));
}

// Best-effort durability for a rename.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

void check_header(const std::vector<unsigned char>& bytes, const FramedLog::Format& format,
                  std::uint64_t fingerprint, const std::string& path) {
  if (bytes.size() < kHeaderBytes ||
      std::memcmp(bytes.data(), format.magic.data(), format.magic.size()) != 0 ||
      get_u32(bytes.data() + 20) != crc32(bytes.data(), 20)) {
    throw CorruptLogError(error_text(format, "corrupt header in " + path));
  }
  if (get_u32(bytes.data() + 8) != kVersion) {
    throw CorruptLogError(error_text(format, "unsupported version in " + path));
  }
  const std::uint64_t file_fp = static_cast<std::uint64_t>(get_u32(bytes.data() + 12)) |
                                (static_cast<std::uint64_t>(get_u32(bytes.data() + 16)) << 32);
  if (file_fp != fingerprint) {
    throw std::runtime_error(error_text(
        format, "fingerprint mismatch in " + path + " (log belongs to a different configuration)"));
  }
}

/// Visits the intact frames after the header; returns the offset just past
/// the last one (everything after it is a torn tail) and counts the frames.
std::size_t scan_frames(const std::vector<unsigned char>& bytes, const FramedLog::Format& format,
                        const std::string& path, const FramedLog::FrameVisitor& visit,
                        std::size_t& frames) {
  std::size_t off = kHeaderBytes;
  frames = 0;
  while (bytes.size() - off >= format.length_prefix) {
    const unsigned char* f = bytes.data() + off;
    const std::size_t body_len = format.body_length(f);
    if (bytes.size() - off < body_len + kCrcBytes) break;
    if (get_u32(f + body_len) != crc32(f, body_len)) break;
    try {
      visit({f, body_len});
    } catch (const std::exception& e) {
      throw CorruptLogError(error_text(format, "undecodable record in " + path + ": " + e.what()));
    }
    off += body_len + kCrcBytes;
    ++frames;
  }
  return off;
}

}  // namespace

FramedLog::FramedLog(const Format& format, std::string path, std::uint64_t fingerprint,
                     bool fsync_writes, const FrameVisitor& visit)
    : format_(format), path_(std::move(path)), fingerprint_(fingerprint), fsync_(fsync_writes) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw std::runtime_error(errno_text(format_, "cannot open " + path_));
  try {
    const std::vector<unsigned char> bytes = read_all(fd_, format_, path_);
    if (bytes.empty()) {
      unsigned char header[kHeaderBytes];
      encode_header(header, format_, fingerprint_);
      try {
        write_all(fd_, header, sizeof header, format_, path_);
        if (fsync_) fsync_or_throw(fd_, format_, path_);
      } catch (...) {
        // Leave the file empty, not a partial header every later open would
        // refuse as corrupt: the create stays retryable.
        (void)::ftruncate(fd_, 0);
        throw;
      }
      size_bytes_ = kHeaderBytes;
      return;
    }
    check_header(bytes, format_, fingerprint_, path_);
    const std::size_t off = scan_frames(bytes, format_, path_, visit, num_frames_);
    truncated_ = bytes.size() - off;
    size_bytes_ = off;
    if (truncated_ > 0 && ::ftruncate(fd_, static_cast<off_t>(off)) != 0) {
      throw std::runtime_error(errno_text(format_, "cannot truncate torn tail of " + path_));
    }
    if (::lseek(fd_, static_cast<off_t>(off), SEEK_SET) < 0) {
      throw std::runtime_error(errno_text(format_, "seek failed for " + path_));
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

FramedLog::~FramedLog() {
  if (fd_ >= 0) ::close(fd_);
}

void FramedLog::append(std::span<const unsigned char> body) {
  if (fd_ < 0) {
    throw std::runtime_error(error_text(
        format_, path_ + " is poisoned by an earlier failed write; reopen to recover"));
  }
  frame_.clear();
  encode_frame(frame_, body);
  // The file length always equals size_bytes_ here: the open truncates any
  // torn tail, and a failed append rolls back (or poisons fd_).
  const off_t before = static_cast<off_t>(size_bytes_);
  try {
    write_all(fd_, frame_.data(), frame_.size(), format_, path_);
    if (fsync_) fsync_or_throw(fd_, format_, path_);
  } catch (...) {
    // Bytes may have reached the file before the failure; the caller observes
    // a failed append, so a post-crash replay must not see this frame. If the
    // rollback itself fails, poison the handle — every later append throws,
    // forcing a reopen instead of silently diverging from the file.
    if (::ftruncate(fd_, before) != 0 || ::lseek(fd_, before, SEEK_SET) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
    throw;
  }
  size_bytes_ += frame_.size();
  ++num_frames_;
}

void FramedLog::rewrite(const std::vector<std::vector<unsigned char>>& bodies) {
  const std::string tmp = path_ + ".tmp";
  const int tmp_fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) throw std::runtime_error(errno_text(format_, "cannot open " + tmp));
  std::vector<unsigned char> file(kHeaderBytes);
  try {
    encode_header(file.data(), format_, fingerprint_);
    for (const std::vector<unsigned char>& body : bodies) encode_frame(file, body);
    write_all(tmp_fd, file.data(), file.size(), format_, tmp);
    fsync_or_throw(tmp_fd, format_, tmp);
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
      throw std::runtime_error(errno_text(format_, "rename " + tmp + " -> " + path_ + " failed"));
    }
  } catch (...) {
    ::close(tmp_fd);
    throw;
  }
  fsync_parent_dir(path_);
  // After the rename, tmp_fd refers to the inode now linked at path_.
  if (fd_ >= 0) ::close(fd_);
  fd_ = tmp_fd;
  num_frames_ = bodies.size();
  size_bytes_ = file.size();
}

void FramedLog::scan(const Format& format, const std::string& path, std::uint64_t fingerprint,
                     const FrameVisitor& visit) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error(errno_text(format, "cannot open " + path));
  try {
    const std::vector<unsigned char> bytes = read_all(fd, format, path);
    check_header(bytes, format, fingerprint, path);
    std::size_t frames = 0;
    scan_frames(bytes, format, path, visit, frames);  // torn tail ignored, never truncated
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

}  // namespace ftdb::serve
