#include "serve/wire.hpp"

#include <optional>

#include "io/json.hpp"

namespace swlb::serve {

std::string WireValue::asText() const {
  switch (kind) {
    case Kind::String: return str;
    case Kind::Number: return io::json_number(num);
    case Kind::Bool: return boolean ? "true" : "false";
  }
  return {};
}

std::string encode_line(const WireMap& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out.push_back(',');
    first = false;
    out += io::json_quote(k);
    out.push_back(':');
    switch (v.kind) {
      case WireValue::Kind::String: out += io::json_quote(v.str); break;
      case WireValue::Kind::Number: out += io::json_number(v.num); break;
      case WireValue::Kind::Bool: out += v.boolean ? "true" : "false"; break;
    }
  }
  out.push_back('}');
  return out;
}

WireMap decode_line(std::string_view line) {
  using Type = io::JsonValue::Type;
  const io::JsonValue root = io::parse_json(line, "serve wire");
  if (root.type != Type::Object)
    throw Error("serve wire: a line must be one JSON object");
  WireMap out;
  for (const auto& [k, v] : root.object) {
    switch (v.type) {
      case Type::String: out[k] = WireValue::ofString(v.str); break;
      case Type::Number: out[k] = WireValue::ofNumber(v.number); break;
      case Type::Bool: out[k] = WireValue::ofBool(v.boolean); break;
      case Type::Null: out[k] = WireValue::ofString(""); break;
      default:
        throw Error("serve wire: '" + k +
                    "' is nested; the grammar is flat (no objects or arrays)");
    }
  }
  return out;
}

const WireValue* wire_find(const WireMap& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? nullptr : &it->second;
}

std::string wire_string(const WireMap& m, const std::string& key) {
  const WireValue* v = wire_find(m, key);
  if (!v || v->kind != WireValue::Kind::String)
    throw Error("serve wire: missing string field '" + key + "'");
  return v->str;
}

std::string wire_string(const WireMap& m, const std::string& key,
                        const std::string& fallback) {
  const WireValue* v = wire_find(m, key);
  if (!v) return fallback;
  if (v->kind != WireValue::Kind::String)
    throw Error("serve wire: field '" + key + "' is not a string");
  return v->str;
}

namespace {

/// Booleans coerce to 1/0 — clients may send either on a flat protocol.
std::optional<double> numeric_value(const WireValue* v) {
  if (!v) return std::nullopt;
  if (v->kind == WireValue::Kind::Number) return v->num;
  if (v->kind == WireValue::Kind::Bool) return v->boolean ? 1.0 : 0.0;
  return std::nullopt;
}

}  // namespace

double wire_number(const WireMap& m, const std::string& key) {
  const auto num = numeric_value(wire_find(m, key));
  if (!num) throw Error("serve wire: missing numeric field '" + key + "'");
  return *num;
}

double wire_number(const WireMap& m, const std::string& key, double fallback) {
  const WireValue* v = wire_find(m, key);
  if (!v) return fallback;
  const auto num = numeric_value(v);
  if (!num) throw Error("serve wire: field '" + key + "' is not a number");
  return *num;
}

}  // namespace swlb::serve
