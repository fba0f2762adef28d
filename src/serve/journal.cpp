#include "serve/journal.hpp"

#include <array>
#include <stdexcept>
#include <utility>

namespace ftdb::serve {
namespace {

constexpr std::size_t kBodyBytes = 9;  // op + a + b

constexpr FramedLog::Format kFormat{
    "Journal", {'F', 'T', 'D', 'B', 'J', 'R', 'N', '1'}, 0,
    [](const unsigned char*) { return kBodyBytes; }};

std::array<unsigned char, kBodyBytes> encode(const JournalRecord& r) {
  std::array<unsigned char, kBodyBytes> body{static_cast<unsigned char>(r.op)};
  for (int i = 0; i < 4; ++i) {
    body[1 + i] = static_cast<unsigned char>(r.a >> (8 * i));
    body[5 + i] = static_cast<unsigned char>(r.b >> (8 * i));
  }
  return body;
}

JournalRecord decode(std::span<const unsigned char> body) {
  const std::uint8_t op = body[0];
  if (op < static_cast<std::uint8_t>(JournalOp::kFaultNode) ||
      op > static_cast<std::uint8_t>(JournalOp::kRepair)) {
    throw std::runtime_error("unknown op " + std::to_string(op));
  }
  JournalRecord r{static_cast<JournalOp>(op), 0, 0};
  for (int i = 0; i < 4; ++i) {
    r.a |= static_cast<std::uint32_t>(body[1 + i]) << (8 * i);
    r.b |= static_cast<std::uint32_t>(body[5 + i]) << (8 * i);
  }
  return r;
}

}  // namespace

Journal::Journal(std::string path, std::uint64_t fingerprint, bool fsync_writes)
    : log_(kFormat, std::move(path), fingerprint, fsync_writes,
           [this](std::span<const unsigned char> body) { recovered_.push_back(decode(body)); }) {}

void Journal::append(const JournalRecord& record) { log_.append(encode(record)); }

void Journal::rewrite(const std::vector<JournalRecord>& records) {
  std::vector<std::vector<unsigned char>> bodies;
  bodies.reserve(records.size());
  for (const JournalRecord& r : records) {
    const auto body = encode(r);
    bodies.emplace_back(body.begin(), body.end());
  }
  log_.rewrite(bodies);
}

}  // namespace ftdb::serve
