#include "tune/cache.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "io/json.hpp"

namespace swlb::tune {

namespace {

using io::JsonValue;

const JsonValue& field(const JsonValue& obj, const char* name) {
  const JsonValue* v = obj.find(name);
  if (!v)
    throw Error(std::string("tuning cache: missing field \"") + name + "\"");
  return *v;
}

std::string stringField(const JsonValue& obj, const char* name) {
  const JsonValue& v = field(obj, name);
  if (v.type != JsonValue::Type::String)
    throw Error(std::string("tuning cache: field \"") + name +
                "\" is not a string");
  return v.str;
}

/// `v` as a double; `null`, the writer's spelling of a non-finite value,
/// reads as NaN.
double asNumber(const JsonValue& v, const std::string& what) {
  if (v.type == JsonValue::Type::Null)
    return std::numeric_limits<double>::quiet_NaN();
  if (v.type != JsonValue::Type::Number)
    throw Error("tuning cache: " + what + " is not a number");
  return v.number;
}

double numberField(const JsonValue& obj, const char* name) {
  return asNumber(field(obj, name), std::string("field \"") + name + "\"");
}

TuningPlan planFromJson(const JsonValue& obj) {
  TuningPlan p;
  const std::string mode = stringField(obj, "halo_mode");
  if (mode == "sequential") {
    p.haloMode = runtime::HaloMode::Sequential;
  } else if (mode == "overlap") {
    p.haloMode = runtime::HaloMode::Overlap;
  } else {
    throw Error("tuning cache: unknown halo_mode \"" + mode + "\"");
  }
  p.backend = stringField(obj, "backend");
  p.precision = stringField(obj, "precision");
  p.precisionAdvice = stringField(obj, "precision_advice");
  p.advisedQuantError = numberField(obj, "advised_quant_error");
  p.source = stringField(obj, "source");
  const JsonValue& ev = field(obj, "evidence");
  if (ev.type != JsonValue::Type::Object)
    throw Error("tuning cache: \"evidence\" is not an object");
  for (const auto& [k, v] : ev.object)
    p.evidence[k] = asNumber(v, "evidence \"" + k + "\"");
  return p;
}

}  // namespace

const char* halo_mode_name(runtime::HaloMode m) {
  return m == runtime::HaloMode::Sequential ? "sequential" : "overlap";
}

std::string to_json(const TuningKey& key) {
  return io::json_quote(key.toString());
}

std::string TuningKey::toString() const {
  return lattice + ":" + std::to_string(extent.x) + "x" +
         std::to_string(extent.y) + "x" + std::to_string(extent.z) + ":r" +
         std::to_string(ranks) + ":" + precision;
}

std::string to_json(const TuningPlan& plan) {
  // Keys in lexicographic order, matching the map-backed sections, so the
  // whole document is byte-stable for identical contents.
  using io::json_number;
  using io::json_quote;
  std::ostringstream os;
  os << "{\"advised_quant_error\": " << json_number(plan.advisedQuantError)
     << ", \"backend\": " << json_quote(plan.backend)
     << ", \"evidence\": {";
  bool first = true;
  for (const auto& [k, v] : plan.evidence) {
    if (!first) os << ", ";
    first = false;
    os << json_quote(k) << ": " << json_number(v);
  }
  os << "}, \"halo_mode\": \"" << halo_mode_name(plan.haloMode)
     << "\", \"precision\": " << json_quote(plan.precision)
     << ", \"precision_advice\": " << json_quote(plan.precisionAdvice)
     << ", \"source\": " << json_quote(plan.source) << "}";
  return os.str();
}

std::string TuningCache::toString() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kTuneSchema << "\",\n  \"plans\": [";
  bool first = true;
  for (const auto& [key, plan] : plans_) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"key\": " << io::json_quote(key)
       << ",\n     \"plan\": " << to_json(plan) << "}";
  }
  os << (plans_.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

void TuningCache::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("tuning cache: cannot write " + path);
  out << toString();
  if (!out) throw Error("tuning cache: write failed for " + path);
}

TuningCache TuningCache::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return TuningCache{};  // no cache yet: empty, not an error
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const JsonValue root = io::parse_json(text, "tuning cache '" + path + "'");
  if (root.type != JsonValue::Type::Object)
    throw Error("tuning cache: root is not an object in " + path);
  const JsonValue* schema = root.find("schema");
  if (!schema || schema->type != JsonValue::Type::String ||
      schema->str != kTuneSchema)
    return TuningCache{};  // stale/unknown format: discard, re-tune

  TuningCache cache;
  const JsonValue& plans = field(root, "plans");
  if (plans.type != JsonValue::Type::Array)
    throw Error("tuning cache: \"plans\" is not an array in " + path);
  for (const JsonValue& entry : plans.array) {
    if (entry.type != JsonValue::Type::Object)
      throw Error("tuning cache: plan entry is not an object in " + path);
    const std::string key = stringField(entry, "key");
    const JsonValue& plan = field(entry, "plan");
    if (plan.type != JsonValue::Type::Object)
      throw Error("tuning cache: \"plan\" is not an object in " + path);
    cache.plans_[key] = planFromJson(plan);
  }
  return cache;
}

std::optional<TuningPlan> TuningCache::lookup(const TuningKey& key) const {
  const auto it = plans_.find(key.toString());
  if (it == plans_.end()) return std::nullopt;
  return it->second;
}

}  // namespace swlb::tune
