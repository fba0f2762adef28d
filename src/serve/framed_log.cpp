#include "serve/framed_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

#include "serve/durable_file.hpp"

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

std::span<const unsigned char> as_bytes(const std::string& file) {
  return {reinterpret_cast<const unsigned char*>(file.data()), file.size()};
}

void check_header(std::span<const unsigned char> bytes, const FramedLog::Format& format,
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
std::size_t scan_frames(std::span<const unsigned char> bytes, const FramedLog::Format& format,
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
  fd_ = open_file(path_, O_RDWR | O_CREAT);
  const std::string file = read_file(path_);
  if (file.empty()) {
    unsigned char header[kHeaderBytes];
    encode_header(header, format_, fingerprint_);
    try {
      write_all(fd_.get(), header, sizeof header, path_);
      if (fsync_) {
        sync_file(fd_.get(), path_);
        sync_parent_dir(path_);  // the new file's directory entry
      }
    } catch (...) {
      // Leave the file empty, not a partial header every later open would
      // refuse as corrupt: the create stays retryable.
      (void)::ftruncate(fd_.get(), 0);
      throw;
    }
    size_bytes_ = kHeaderBytes;
    return;
  }
  const std::span<const unsigned char> bytes = as_bytes(file);
  check_header(bytes, format_, fingerprint_, path_);
  const std::size_t off = scan_frames(bytes, format_, path_, visit, num_frames_);
  truncated_ = bytes.size() - off;
  size_bytes_ = off;
  if (truncated_ > 0 && ::ftruncate(fd_.get(), static_cast<off_t>(off)) != 0) {
    throw std::runtime_error(errno_text(format_, "cannot truncate torn tail of " + path_));
  }
  if (::lseek(fd_.get(), static_cast<off_t>(off), SEEK_SET) < 0) {
    throw std::runtime_error(errno_text(format_, "seek failed for " + path_));
  }
}

void FramedLog::append(std::span<const unsigned char> body) {
  if (!fd_) {
    throw std::runtime_error(error_text(
        format_, path_ + " is poisoned by an earlier failed write; reopen to recover"));
  }
  frame_.clear();
  encode_frame(frame_, body);
  // The file length always equals size_bytes_ here: the open truncates any
  // torn tail, and a failed append rolls back (or poisons fd_).
  const off_t before = static_cast<off_t>(size_bytes_);
  try {
    write_all(fd_.get(), frame_.data(), frame_.size(), path_);
    if (fsync_) sync_file(fd_.get(), path_);
  } catch (...) {
    // Bytes may have reached the file before the failure; the caller observes
    // a failed append, so a post-crash replay must not see this frame. If the
    // rollback itself fails, poison the handle — every later append throws,
    // forcing a reopen instead of silently diverging from the file.
    if (::ftruncate(fd_.get(), before) != 0 || ::lseek(fd_.get(), before, SEEK_SET) < 0) {
      fd_.reset();
    }
    throw;
  }
  size_bytes_ += frame_.size();
  ++num_frames_;
}

void FramedLog::rewrite(const std::vector<std::vector<unsigned char>>& bodies) {
  std::vector<unsigned char> file(kHeaderBytes);
  encode_header(file.data(), format_, fingerprint_);
  for (const std::vector<unsigned char>& body : bodies) encode_frame(file, body);
  // Once the rename has happened, describe the file at path_, even when the
  // directory sync after it failed.
  UniqueFd renamed;
  std::exception_ptr failure;
  try {
    write_file_atomically(path_, {reinterpret_cast<const char*>(file.data()), file.size()}, true,
                          &renamed);
  } catch (...) {
    failure = std::current_exception();
  }
  if (renamed) {
    fd_ = std::move(renamed);
    num_frames_ = bodies.size();
    size_bytes_ = file.size();
  }
  if (failure) std::rethrow_exception(failure);
}

void FramedLog::scan(const Format& format, const std::string& path, std::uint64_t fingerprint,
                     const FrameVisitor& visit) {
  const std::string file = read_file(path);
  check_header(as_bytes(file), format, fingerprint, path);
  std::size_t frames = 0;
  scan_frames(as_bytes(file), format, path, visit, frames);  // torn tail ignored, never truncated
}

}  // namespace ftdb::serve
