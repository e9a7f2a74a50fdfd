// Minimal JSON value model for the service wire protocol (src/serve/).
//
// The daemon speaks newline-delimited JSON over a Unix-domain socket; both
// sides of that conversation need a small dynamic JSON value — requests are
// heterogeneous objects, unlike the fixed-schema BENCH files that
// src/perf/bench_json.cpp parses straight into structs. This is that value:
// object members keep insertion order (deterministic wire bytes), numbers
// are doubles (64-bit checksums travel as 0x-prefixed hex strings, exactly
// like the bench JSON schema), and dump() emits a single line so one value
// is always one NDJSON frame.
//
// Deliberately not a general-purpose JSON library: no unicode escapes, no
// exponent-heavy number formatting guarantees beyond round-tripping what
// dump() wrote, and parse() rejects trailing garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace fmossim::serve {

/// Deepest container nesting parse() accepts. The protocol nests 3 levels;
/// deeper input is rejected with an Error rather than recursed into.
inline constexpr std::size_t kJsonMaxDepth = 64;

/// A parsed JSON value (null, bool, number, string, array or object).
/// Accessors throw Error on type mismatches, which the server turns into
/// protocol error responses.
class JsonValue {
 public:
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;  ///< null

  static JsonValue makeNull() { return JsonValue(); }
  static JsonValue makeBool(bool b);
  static JsonValue makeNumber(double v);
  /// Unsigned 64-bit values above 2^53 do not survive the double
  /// representation; callers with full-range values (checksums,
  /// fingerprints) must use makeHexU64().
  static JsonValue makeU64(std::uint64_t v);
  static JsonValue makeString(std::string s);
  static JsonValue makeArray();
  static JsonValue makeObject();
  /// Full-range 64-bit value as a "0x%016x" hex string (the bench JSON
  /// checksum convention).
  static JsonValue makeHexU64(std::uint64_t v);

  Type type() const { return type_; }
  bool isNull() const { return type_ == Type::Null; }
  bool isObject() const { return type_ == Type::Object; }

  bool asBool() const;
  double asNumber() const;
  /// Number as a non-negative integer; throws on negatives, non-integers
  /// and values above 2^53 (where doubles stop being exact).
  std::uint64_t asU64() const;
  const std::string& asString() const;
  /// Parses a makeHexU64()-style "0x..." string back to the full value.
  std::uint64_t asHexU64() const;

  const std::vector<JsonValue>& items() const;      ///< array elements
  void push(JsonValue v);                           ///< array append

  /// Object member access; get() throws on a missing key, find() returns
  /// nullptr, and the typed getters fall back to a default when absent
  /// (additive-schema tolerance — the parser side of "unknown fields are
  /// ignored, missing fields default").
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  void set(const std::string& key, JsonValue v);    ///< add or replace
  const JsonValue* find(const std::string& key) const;
  const JsonValue& get(const std::string& key) const;
  double numberOr(const std::string& key, double fallback) const;
  std::uint64_t u64Or(const std::string& key, std::uint64_t fallback) const;
  bool boolOr(const std::string& key, bool fallback) const;
  std::string stringOr(const std::string& key, std::string fallback) const;

  /// Serializes as one line of JSON (no trailing newline; NDJSON framing is
  /// the transport's job).
  std::string dump() const;

  /// Parses a complete JSON document. Throws Error (with byte offset) on
  /// malformed input, trailing garbage or nesting past kJsonMaxDepth.
  static JsonValue parse(const std::string& text);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

}  // namespace fmossim::serve
