#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace swlb::io {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The two-character escapes: `\` + kEscaped[k] stands for kUnescaped[k].
constexpr std::string_view kEscaped = "\"\\/bfnrt";
constexpr std::string_view kUnescaped = "\"\\/\b\f\n\r\t";

/// Recursive descent over one JSON text.  `i_` never passes the end, so
/// every read is bounds-checked by atEnd()/peek().
class Parser {
 public:
  Parser(std::string_view text, const std::string& context)
      : s_(text), context_(context) {}

  JsonValue document() {
    JsonValue v = value(0);
    ws();
    if (!atEnd()) fail("trailing characters after the value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    std::string msg =
        context_ + ": malformed JSON at byte " + std::to_string(i_);
    if (member_) msg += " in the value of '" + *member_ + "'";
    throw Error(msg + ": " + why);
  }

  bool atEnd() const { return i_ >= s_.size(); }
  /// Next byte, or '\0' at the end (which no grammar rule accepts).
  char peek() const { return atEnd() ? '\0' : s_[i_]; }

  void ws() {
    while (!atEnd() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
                        s_[i_] == '\r'))
      ++i_;
  }

  void expect(char c, const char* what) {
    if (peek() != c) fail(std::string("expected ") + what);
    ++i_;
  }

  JsonValue value(int depth) {
    ws();
    if (atEnd()) fail("unexpected end of input");
    JsonValue v;
    switch (s_[i_]) {
      case '{': return object(depth + 1);
      case '[': return array(depth + 1);
      case '"':
        v.type = JsonValue::Type::String;
        v.str = string();
        return v;
      case 't':
      case 'f':
        v.type = JsonValue::Type::Bool;
        v.boolean = s_[i_] == 't';
        literal(v.boolean ? "true" : "false");
        return v;
      case 'n':
        literal("null");
        return v;
      default: return number();
    }
  }

  void literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) fail("expected a value");
    i_ += word.size();
  }

  std::size_t digits() {
    const std::size_t start = i_;
    while (is_digit(peek())) ++i_;
    return i_ - start;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, finite.
  JsonValue number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    const std::size_t lead = i_;
    if (digits() == 0) fail("expected a value");
    if (s_[lead] == '0' && i_ - lead > 1) fail("leading zero in a number");
    if (peek() == '.' && (++i_, digits() == 0))
      fail("expected a digit after '.'");
    if (peek() == 'e' || peek() == 'E') {
      ++i_;
      if (peek() == '+' || peek() == '-') ++i_;
      if (digits() == 0) fail("expected an exponent digit");
    }
    JsonValue v;
    v.type = JsonValue::Type::Number;
    v.number = std::strtod(std::string(s_.substr(start, i_ - start)).c_str(),
                           nullptr);
    if (!std::isfinite(v.number)) {
      i_ = start;
      fail("number out of range");
    }
    return v;
  }

  unsigned hex4() {
    unsigned cp = 0;
    const char* p = s_.data() + i_;
    if (s_.size() - i_ < 4 || std::from_chars(p, p + 4, cp, 16).ptr != p + 4)
      fail("bad \\u escape");
    i_ += 4;
    return cp;
  }

  /// The code point of a \u escape (the "\u" already read), joining a
  /// UTF-16 surrogate pair.
  unsigned codePoint() {
    const unsigned hi = hex4();
    if (hi >= 0xDC00 && hi <= 0xDFFF) fail("unpaired low surrogate");
    if (hi < 0xD800 || hi > 0xDBFF) return hi;
    if (s_.substr(i_, 2) != "\\u") fail("unpaired high surrogate");
    i_ += 2;
    const unsigned lo = hex4();
    if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired high surrogate");
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  static void appendUtf8(std::string& out, unsigned cp) {
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    out.push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
    for (int k = tail - 1; k >= 0; --k)
      out.push_back(static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F)));
  }

  std::string string() {
    expect('"', "'\"'");
    std::string out;
    for (;;) {
      if (atEnd()) fail("unterminated string");
      const char c = s_[i_];
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in a string");
      ++i_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (atEnd()) fail("unterminated escape");
      const char e = s_[i_++];
      const std::size_t k = kEscaped.find(e);
      if (k != std::string_view::npos) {
        out.push_back(kUnescaped[k]);
      } else if (e == 'u') {
        appendUtf8(out, codePoint());
      } else {
        --i_;
        fail("unknown escape");
      }
    }
  }

  /// The comma-separated items of an array or object (the opening
  /// bracket at i_), each read by `item`, up to `close`.
  template <class Item>
  void items(int depth, char close, Item&& item) {
    if (depth > kJsonMaxDepth)
      fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
    ++i_;
    ws();
    if (peek() == close) {
      ++i_;
      return;
    }
    for (;;) {
      ws();
      item();
      ws();
      if (peek() != ',') break;
      ++i_;
    }
    expect(close, close == '}' ? "',' or '}'" : "',' or ']'");
  }

  JsonValue object(int depth) {
    JsonValue v;
    v.type = JsonValue::Type::Object;
    items(depth, '}', [&] {
      const std::size_t keyAt = i_;
      std::string key = string();
      if (v.object.count(key)) {
        i_ = keyAt;
        fail("duplicate key '" + key + "'");
      }
      ws();
      expect(':', "':'");
      const std::string* outer = std::exchange(member_, &key);
      JsonValue member = value(depth);
      member_ = outer;
      v.object.emplace(std::move(key), std::move(member));
    });
    return v;
  }

  JsonValue array(int depth) {
    JsonValue v;
    v.type = JsonValue::Type::Array;
    items(depth, ']', [&] { v.array.push_back(value(depth)); });
    return v;
  }

  std::string_view s_;
  const std::string& context_;
  std::size_t i_ = 0;
  const std::string* member_ = nullptr;  ///< key whose value is being read
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

JsonValue parse_json(std::string_view text, const std::string& context) {
  return Parser(text, context).document();
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    const std::size_t k = kUnescaped.find(c);
    if (k != std::string_view::npos && c != '/') {
      out.push_back('\\');
      out.push_back(kEscaped[k]);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v, int decimals) {
  if (!std::isfinite(v)) return "null";
  const bool integer =
      decimals < 0 && v == std::trunc(v) && std::abs(v) < 0x1p53;
  const auto print = [&](char* buf, std::size_t size) {
    return decimals >= 0 ? std::snprintf(buf, size, "%.*f", decimals, v)
           : integer     ? std::snprintf(buf, size, "%lld",
                                         static_cast<long long>(v))
                         : std::snprintf(buf, size, "%.17g", v);
  };
  // Sized first: fixed point can run to 309 integer digits.
  std::string out(static_cast<std::size_t>(print(nullptr, 0)), '\0');
  print(out.data(), out.size() + 1);
  return out;
}

}  // namespace swlb::io
