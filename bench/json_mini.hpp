// Minimal recursive-descent JSON reader for the perf-trajectory gate.
//
// bench_perf --check parses a checked-in BENCH_baseline.json and compares
// its counters and derived values against a fresh in-process run.  The baseline
// is machine-written by bench_perf itself (no escapes beyond \" in keys,
// plain numbers), so this reader supports exactly standard JSON with
// doubles for all numbers — counters stay far below 2^53, where doubles
// are exact.  It is a tool-side helper: nothing in src/ depends on it.
#pragma once

#include <cctype>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace cps::bench {

/// One parsed JSON value (tree-owning; copies are deep).
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool has(const std::string& key) const {
    return kind == Kind::kObject && object.count(key) > 0;
  }
  const Json& at(const std::string& key) const {
    if (!has(key)) throw std::runtime_error("json: missing key " + key);
    return object.at(key);
  }
};

/// Parses one JSON document; std::runtime_error on malformed input.
class JsonParser {
 public:
  static Json parse(const std::string& text) {
    JsonParser p(text);
    const Json v = p.value();
    p.skip_ws();
    if (p.pos_ != text.size()) throw std::runtime_error("json: trailing data");
    return v;
  }

 private:
  explicit JsonParser(const std::string& text) : text_(text) {}

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': {
        Json v;
        v.kind = Json::Kind::kBool;
        v.boolean = text_[pos_] == 't';
        if (!consume_literal(v.boolean ? "true" : "false")) fail("literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("literal");
        return Json{};
      }
      default:
        return number();
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      const std::string key = string();
      expect(':');
      v.object.emplace(key, value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected , or }");
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected , or ]");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          default: fail("unsupported escape");  // \uXXXX never emitted here.
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
  }

  Json number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    Json v;
    v.kind = Json::Kind::kNumber;
    std::size_t used = 0;
    v.number = std::stod(text_.substr(start, pos_ - start), &used);
    if (used != pos_ - start) fail("malformed number");
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace cps::bench
