// Wire format of the `swlb::serve` protocol (DESIGN.md §12): one JSON
// object per newline-terminated line, *flat* — string keys mapping to
// string / number / boolean values only.  Lines are read by the shared
// strict parser (io/json.hpp); nested objects and arrays are rejected on
// decode so both ends stay trivially auditable, and structured payloads
// (a job's case description) travel as dotted key prefixes ("cfg.case",
// "cfg.nx", ...).  Encoding sorts keys (std::map) so equal maps serialize
// to byte-equal lines.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "core/common.hpp"

namespace swlb::serve {

/// One protocol field value: a tagged string / number / boolean.
struct WireValue {
  enum class Kind { String, Number, Bool };

  Kind kind = Kind::String;
  std::string str;
  double num = 0;
  bool boolean = false;

  static WireValue ofString(std::string s) {
    WireValue v;
    v.kind = Kind::String;
    v.str = std::move(s);
    return v;
  }
  static WireValue ofNumber(double n) {
    WireValue v;
    v.kind = Kind::Number;
    v.num = n;
    return v;
  }
  static WireValue ofBool(bool b) {
    WireValue v;
    v.kind = Kind::Bool;
    v.boolean = b;
    return v;
  }

  /// The value as config-file text: strings verbatim, numbers with
  /// integers printed exactly ("16", not "16.000000"), bools true/false.
  std::string asText() const;
};

using WireMap = std::map<std::string, WireValue>;

/// Serialize to a single JSON line (no trailing newline).  Byte-stable:
/// sorted keys, deterministic number formatting; a non-finite number
/// encodes as `null`.
std::string encode_line(const WireMap& m);

/// Parse one line back into a map; `null` decodes to the empty string.
/// Throws Error on anything that is not strict JSON (io::parse_json) or
/// not one flat object.
WireMap decode_line(std::string_view line);

// ---- typed accessors (throwing forms name the missing/mistyped key) ----

const WireValue* wire_find(const WireMap& m, const std::string& key);
std::string wire_string(const WireMap& m, const std::string& key);
std::string wire_string(const WireMap& m, const std::string& key,
                        const std::string& fallback);
double wire_number(const WireMap& m, const std::string& key);
double wire_number(const WireMap& m, const std::string& key, double fallback);

}  // namespace swlb::serve
