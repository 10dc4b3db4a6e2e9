// The one JSON codec of the program (DESIGN.md §6, §9, §12): the serve
// wire protocol, the swlb-tune-v2 tuning cache, swlb-bench-v1 reports and
// Chrome traces all read through parse_json and write every string and
// number through json_quote and json_number.
//
// The parser is strict RFC 8259: the JSON number grammar with finite
// values only, the string escapes of the RFC (\u escapes, surrogate pairs
// included, decode to UTF-8), no unescaped control characters, no
// duplicate object keys, and nesting at most kJsonMaxDepth deep.  Every
// rejection is a swlb::Error naming the byte offset, never a crash.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/common.hpp"

namespace swlb::io {

/// One parsed JSON value: a tagged null / bool / number / string / array
/// / object.  Numbers are finite doubles.
struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Member `key` of an object; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
};

/// Deepest array/object nesting parse_json accepts (the documents this
/// program reads nest at most five deep).
inline constexpr int kJsonMaxDepth = 64;

/// Parse one complete JSON text.  Throws Error
/// "<context>: malformed JSON at byte <n>[ in the value of '<key>']: <why>",
/// where <key> is the innermost object member being read.
JsonValue parse_json(std::string_view text, const std::string& context);

/// `s` as a quoted JSON string: `"` and `\` backslash-escaped, \b \f \n
/// \r \t by their short escapes, other control bytes as \u00xx, every
/// other byte verbatim.
std::string json_quote(std::string_view s);

/// `v` as JSON number text: finite integers below 2^53 in magnitude
/// print as integers, other finite values as %.17g (round-trips every
/// double), non-finite values as `null`.  `decimals >= 0` prints finite
/// values in fixed point with that many decimals instead.
std::string json_number(double v, int decimals = -1);

}  // namespace swlb::io
