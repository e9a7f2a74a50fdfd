#include "serve/json.hpp"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdlib>

#include "util/strings.hpp"

namespace fmossim::serve {

namespace {

const char* typeName(JsonValue::Type t) {
  switch (t) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return "bool";
    case JsonValue::Type::Number: return "number";
    case JsonValue::Type::String: return "string";
    case JsonValue::Type::Array: return "array";
    case JsonValue::Type::Object: return "object";
  }
  return "?";
}

[[noreturn]] void typeError(const char* want, JsonValue::Type got) {
  throw Error(format("JSON: expected %s, got %s", want, typeName(got)));
}

void escapeTo(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Shortest-form number rendering that still round-trips: integers (the
// common case — counts, ids, byte sizes) print without a fraction.
void numberTo(std::string& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    out += format("%lld", static_cast<long long>(v));
  } else {
    out += format("%.17g", v);
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parseValue() {
    skipWs();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse: bound the depth so a hostile line of '['
        // fails with an error instead of exhausting the stack.
        if (++depth_ > kJsonMaxDepth) {
          fail(format("nesting deeper than %zu levels", kJsonMaxDepth));
        }
        JsonValue v = c == '{' ? parseObject() : parseArray();
        --depth_;
        return v;
      }
      case '"': return JsonValue::makeString(parseString());
      case 't':
      case 'f': return parseBool();
      case 'n': return parseNull();
      default: return parseNumber();
    }
  }

  void end() {
    skipWs();
    if (pos_ != text_.size()) fail("trailing garbage");
  }

 private:
  JsonValue parseObject() {
    expect('{');
    JsonValue v = JsonValue::makeObject();
    skipWs();
    if (tryConsume('}')) return v;
    do {
      skipWs();
      const std::string key = parseString();
      skipWs();
      expect(':');
      v.set(key, parseValue());
      skipWs();
    } while (tryConsume(','));
    skipWs();
    expect('}');
    return v;
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue v = JsonValue::makeArray();
    skipWs();
    if (tryConsume(']')) return v;
    do {
      v.push(parseValue());
      skipWs();
    } while (tryConsume(','));
    skipWs();
    expect(']');
    return v;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
              else fail("malformed \\u escape");
            }
            if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
            c = static_cast<char>(code);
            break;
          }
          default: fail("unsupported escape");
        }
      }
      out += c;
    }
  }

  JsonValue parseNumber() {
    const char* start = text_.c_str() + pos_;
    char* endp = nullptr;
    const double v = std::strtod(start, &endp);
    if (endp == start) fail("expected value");
    pos_ += static_cast<std::size_t>(endp - start);
    return JsonValue::makeNumber(v);
  }

  JsonValue parseBool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return JsonValue::makeBool(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return JsonValue::makeBool(false);
    }
    fail("expected boolean");
  }

  JsonValue parseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue::makeNull();
    }
    fail("expected null");
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(format("expected '%c'", c));
    }
    ++pos_;
  }

  bool tryConsume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[noreturn]] void fail(const std::string& what) {
    throw Error(format("JSON: %s at byte %zu", what.c_str(), pos_));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open containers around the current value
};

}  // namespace

JsonValue JsonValue::makeBool(bool b) {
  JsonValue v;
  v.type_ = Type::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::makeNumber(double d) {
  JsonValue v;
  v.type_ = Type::Number;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::makeU64(std::uint64_t u) {
  return makeNumber(static_cast<double>(u));
}

JsonValue JsonValue::makeString(std::string s) {
  JsonValue v;
  v.type_ = Type::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::makeArray() {
  JsonValue v;
  v.type_ = Type::Array;
  return v;
}

JsonValue JsonValue::makeObject() {
  JsonValue v;
  v.type_ = Type::Object;
  return v;
}

JsonValue JsonValue::makeHexU64(std::uint64_t u) {
  return makeString(format("0x%016" PRIx64, u));
}

bool JsonValue::asBool() const {
  if (type_ != Type::Bool) typeError("bool", type_);
  return bool_;
}

double JsonValue::asNumber() const {
  if (type_ != Type::Number) typeError("number", type_);
  return number_;
}

std::uint64_t JsonValue::asU64() const {
  const double v = asNumber();
  if (v < 0.0 || v != std::floor(v) || v > 9.007199254740992e15) {
    throw Error(format("JSON: %.17g is not an exact unsigned integer", v));
  }
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::asString() const {
  if (type_ != Type::String) typeError("string", type_);
  return string_;
}

std::uint64_t JsonValue::asHexU64() const {
  const std::string& s = asString();
  if (s.size() < 3 || s[0] != '0' || s[1] != 'x') {
    throw Error("JSON: expected a 0x-prefixed hex string, got '" + s + "'");
  }
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str() + 2, &end, 16);
  if (end == nullptr || *end != '\0') {
    throw Error("JSON: malformed hex string '" + s + "'");
  }
  return v;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::Array) typeError("array", type_);
  return array_;
}

void JsonValue::push(JsonValue v) {
  if (type_ != Type::Array) typeError("array", type_);
  array_.push_back(std::move(v));
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::Object) typeError("object", type_);
  return object_;
}

void JsonValue::set(const std::string& key, JsonValue v) {
  if (type_ != Type::Object) typeError("object", type_);
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::Object) typeError("object", type_);
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::get(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw Error("JSON: missing key '" + key + "'");
  return *v;
}

double JsonValue::numberOr(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->asNumber();
}

std::uint64_t JsonValue::u64Or(const std::string& key,
                               std::uint64_t fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->asU64();
}

bool JsonValue::boolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? fallback : v->asBool();
}

std::string JsonValue::stringOr(const std::string& key,
                                std::string fallback) const {
  const JsonValue* v = find(key);
  return v == nullptr ? std::move(fallback) : v->asString();
}

std::string JsonValue::dump() const {
  std::string out;
  switch (type_) {
    case Type::Null: out = "null"; break;
    case Type::Bool: out = bool_ ? "true" : "false"; break;
    case Type::Number: numberTo(out, number_); break;
    case Type::String: escapeTo(out, string_); break;
    case Type::Array: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        out += array_[i].dump();
      }
      out += ']';
      break;
    }
    case Type::Object: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        escapeTo(out, object_[i].first);
        out += ':';
        out += object_[i].second.dump();
      }
      out += '}';
      break;
    }
  }
  return out;
}

JsonValue JsonValue::parse(const std::string& text) {
  Parser p(text);
  JsonValue v = p.parseValue();
  p.end();
  return v;
}

}  // namespace fmossim::serve
