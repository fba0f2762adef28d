#include "analysis/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ftdb::analysis {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::prepare_for_value() {
  if (stack_.empty()) {
    if (root_written_) throw std::logic_error("JsonWriter: multiple root values");
    root_written_ = true;
    return;
  }
  Frame& top = stack_.back();
  if (top.kind == 'o') {
    if (!top.key_pending) throw std::logic_error("JsonWriter: value in object without key");
    top.key_pending = false;
  } else {
    if (top.has_entries) out_ += ',';
    top.has_entries = true;
  }
}

void JsonWriter::raw(const std::string& text) { out_ += text; }

void JsonWriter::begin_object() {
  prepare_for_value();
  stack_.push_back({'o'});
  out_ += '{';
}

void JsonWriter::end_object() {
  if (stack_.empty() || stack_.back().kind != 'o' || stack_.back().key_pending) {
    throw std::logic_error("JsonWriter: mismatched end_object");
  }
  stack_.pop_back();
  out_ += '}';
}

void JsonWriter::begin_array() {
  prepare_for_value();
  stack_.push_back({'a'});
  out_ += '[';
}

void JsonWriter::end_array() {
  if (stack_.empty() || stack_.back().kind != 'a') {
    throw std::logic_error("JsonWriter: mismatched end_array");
  }
  stack_.pop_back();
  out_ += ']';
}

JsonWriter& JsonWriter::key(const std::string& k) {
  if (stack_.empty() || stack_.back().kind != 'o' || stack_.back().key_pending) {
    throw std::logic_error("JsonWriter: key outside object");
  }
  Frame& top = stack_.back();
  if (top.has_entries) out_ += ',';
  top.has_entries = true;
  top.key_pending = true;
  raw('"' + json_escape(k) + "\":");
  return *this;
}

void JsonWriter::value(const std::string& v) {
  prepare_for_value();
  raw('"' + json_escape(v) + '"');
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::value(double v) {
  prepare_for_value();
  if (!std::isfinite(v)) {
    raw("null");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  raw(buf);
}

void JsonWriter::value(std::uint64_t v) {
  prepare_for_value();
  raw(std::to_string(v));
}

void JsonWriter::value(bool v) {
  prepare_for_value();
  raw(v ? "true" : "false");
}

std::string JsonWriter::str() const {
  if (!stack_.empty()) throw std::logic_error("JsonWriter: unclosed containers");
  if (!root_written_) throw std::logic_error("JsonWriter: empty document");
  return out_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw std::runtime_error("JsonValue: missing key \"" + key + "\"");
  return *v;
}

namespace {

/// Recursive-descent parser over the raw text; tracks the offset for errors.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("json_parse: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{': {
        v.kind = JsonValue::Kind::Object;
        ++pos_;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          return v;
        }
        for (;;) {
          skip_ws();
          std::string key = parse_string_token();
          skip_ws();
          expect(':');
          v.object.emplace_back(std::move(key), parse_value());
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.kind = JsonValue::Kind::Array;
        ++pos_;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          return v;
        }
        for (;;) {
          v.array.push_back(parse_value());
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return v;
        }
      }
      case '"':
        v.kind = JsonValue::Kind::String;
        v.string = parse_string_token();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind = JsonValue::Kind::Bool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind = JsonValue::Kind::Bool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return v;
      default:
        return parse_number();
    }
  }

  std::string parse_string_token() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    try {
      std::size_t consumed = 0;
      v.number = std::stod(text_.substr(start, pos_ - start), &consumed);
      if (consumed != pos_ - start) throw std::invalid_argument("partial");
    } catch (const std::exception&) {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) { return JsonParser(text).parse_document(); }

double json_number(const JsonValue& v, const std::string& what) {
  if (v.kind != JsonValue::Kind::Number) throw std::runtime_error(what + " must be a number");
  return v.number;
}

std::uint64_t json_uint(const JsonValue& v, const std::string& what) {
  const double d = json_number(v, what);
  // 2^64 is exactly representable; every double below it casts exactly.
  if (!(d >= 0.0) || d != std::floor(d) || d >= 18446744073709551616.0) {
    throw std::runtime_error(what + " must be a non-negative integer below 2^64");
  }
  return static_cast<std::uint64_t>(d);
}

std::uint64_t json_uint_at(const JsonValue& obj, const std::string& key) {
  return json_uint(obj.at(key), "\"" + key + "\"");
}

}  // namespace ftdb::analysis
