#include "campaign/elastic/blocklog.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "analysis/bench_json.hpp"

namespace ftdb::campaign::elastic {
namespace {

using analysis::JsonValue;
using analysis::JsonWriter;

constexpr std::size_t kPrefixBytes = 1 + 4;  // type + payload_len
constexpr std::uint8_t kRecordBlock = 1;

std::uint32_t payload_length(const unsigned char* prefix) {
  return static_cast<std::uint32_t>(prefix[1]) | (static_cast<std::uint32_t>(prefix[2]) << 8) |
         (static_cast<std::uint32_t>(prefix[3]) << 16) |
         (static_cast<std::uint32_t>(prefix[4]) << 24);
}

constexpr serve::FramedLog::Format kFormat{
    "BlockLog", {'F', 'T', 'D', 'B', 'B', 'L', 'K', '1'}, kPrefixBytes,
    [](const unsigned char* prefix) -> std::size_t {
      return kPrefixBytes + payload_length(prefix);
    }};

std::vector<unsigned char> encode(const BlockRecord& r) {
  JsonWriter w;
  w.begin_object();
  w.key("cell").value(r.cell);
  w.key("block").value(r.block);
  w.key("partial");
  write_scenario_result(w, r.partial);
  w.end_object();
  const std::string payload = w.str();
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::vector<unsigned char> body(kPrefixBytes + payload.size());
  body[0] = kRecordBlock;
  for (int i = 0; i < 4; ++i) body[1 + i] = static_cast<unsigned char>(len >> (8 * i));
  std::memcpy(body.data() + kPrefixBytes, payload.data(), payload.size());
  return body;
}

BlockRecord decode(std::span<const unsigned char> body) {
  if (body[0] != kRecordBlock) {
    throw std::runtime_error("unknown record type " + std::to_string(body[0]));
  }
  const JsonValue doc = analysis::json_parse(std::string(
      reinterpret_cast<const char*>(body.data()) + kPrefixBytes, body.size() - kPrefixBytes));
  BlockRecord r;
  r.cell = analysis::json_uint_at(doc, "cell");
  r.block = analysis::json_uint_at(doc, "block");
  r.partial = parse_scenario_result(doc.at("partial"));
  return r;
}

}  // namespace

BlockLog::BlockLog(std::string path, std::uint64_t fingerprint, bool fsync_writes)
    : log_(kFormat, std::move(path), fingerprint, fsync_writes,
           [this](std::span<const unsigned char> body) { recovered_.push_back(decode(body)); }) {}

void BlockLog::append(const BlockRecord& record) { log_.append(encode(record)); }

void BlockLog::truncate_all() {
  log_.rewrite({});
  recovered_.clear();
}

std::vector<BlockRecord> BlockLog::read(const std::string& path, std::uint64_t fingerprint) {
  std::vector<BlockRecord> records;
  serve::FramedLog::scan(kFormat, path, fingerprint, [&](std::span<const unsigned char> body) {
    records.push_back(decode(body));
  });
  return records;
}

}  // namespace ftdb::campaign::elastic
