// A deliberately tiny JSON writer and parser — enough for BENCH_*.json, with
// correct string escaping and non-finite-double handling, and no third-party
// dependency.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ftdb::analysis {

std::string json_escape(const std::string& s);

/// Streaming writer with comma/indent bookkeeping. Keys apply to the next
/// value; values outside an object/array form the document root.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Returns *this, so a member reads `w.key("k").value(v);`.
  JsonWriter& key(const std::string& k);
  void value(const std::string& v);
  void value(const char* v);
  void value(double v);       // NaN/Inf are emitted as null (JSON has neither)
  void value(std::uint64_t v);
  void value(bool v);

  /// The finished document. Throws std::logic_error on unbalanced nesting.
  std::string str() const;

 private:
  void prepare_for_value();
  void raw(const std::string& text);

  std::string out_;
  // One frame per open container: 'o' / 'a', plus whether it has entries and
  // (for objects) whether a key is pending.
  struct Frame {
    char kind;
    bool has_entries = false;
    bool key_pending = false;
  };
  std::vector<Frame> stack_;
  bool root_written_ = false;
};

/// Parsed JSON document node. Objects preserve insertion order (BENCH files
/// are written deterministically, so diffs stay stable).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::Null; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Member access that throws std::runtime_error when absent — for schema
  /// fields a well-formed BENCH file always has.
  const JsonValue& at(const std::string& key) const;
};

/// Strict parser for the JSON subset the bench tooling emits (no comments,
/// no trailing commas; \uXXXX escapes are passed through for ASCII and
/// rejected beyond it). Throws std::runtime_error with an offset on errors.
JsonValue json_parse(const std::string& text);

/// Checked number readers for untrusted documents. `what` names the value in
/// the error. json_number throws std::runtime_error unless `v` is a number;
/// json_uint additionally requires a non-negative integer below 2^64 — the
/// values a bare static_cast of the double would turn into undefined
/// behaviour or a silently wrong count.
double json_number(const JsonValue& v, const std::string& what);
std::uint64_t json_uint(const JsonValue& v, const std::string& what);

/// json_uint of the member `key` (throws naming the key when it is absent).
std::uint64_t json_uint_at(const JsonValue& obj, const std::string& key);

}  // namespace ftdb::analysis
