#include "tune/cache.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace swlb::tune {

namespace {

// ---- writing -----------------------------------------------------------

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trip formatting: %.17g reproduces every double exactly
/// and identically across runs (byte-deterministic plans).
std::string numStr(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- minimal JSON parser ----------------------------------------------
// Accepts the subset this module writes: objects, arrays, strings with
// the escapes above, numbers, true/false/null.  Grammar errors throw.

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Object, Array };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error("tuning cache: malformed JSON at byte " +
                std::to_string(pos_) + ": " + why);
  }

  void ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::String;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      literal("null");
      return JsonValue{};
    }
    return number();
  }

  void literal(const char* word) {
    for (const char* p = word; *p; ++p) expect(*p);
  }

  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::Bool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::Number;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      c = s_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          const std::string hex = s_.substr(pos_, 4);
          pos_ += 4;
          out += static_cast<char>(std::stoi(hex, nullptr, 16));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::Object;
    ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      ws();
      std::string key = string();
      ws();
      expect(':');
      v.object[key] = value();
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::Array;
    ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

const JsonValue& field(const JsonValue& obj, const char* name) {
  const auto it = obj.object.find(name);
  if (it == obj.object.end())
    throw Error(std::string("tuning cache: missing field \"") + name + "\"");
  return it->second;
}

std::string stringField(const JsonValue& obj, const char* name) {
  const JsonValue& v = field(obj, name);
  if (v.type != JsonValue::Type::String)
    throw Error(std::string("tuning cache: field \"") + name +
                "\" is not a string");
  return v.str;
}

double numberField(const JsonValue& obj, const char* name) {
  const JsonValue& v = field(obj, name);
  if (v.type != JsonValue::Type::Number)
    throw Error(std::string("tuning cache: field \"") + name +
                "\" is not a number");
  return v.number;
}

/// Backend spelling a cached plan may carry, mapped to the registered
/// backend that now runs the same code: "simd" was folded into "fused",
/// whose bulk runs vectorize themselves, and "threads" ran "fused" on a
/// thread team, which every sub-range backend now gets at the solver's
/// host-thread count.
std::string currentBackendName(const std::string& name) {
  return name == "simd" || name == "threads" ? "fused" : name;
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
  p.ringThresholdBytes =
      static_cast<std::size_t>(numberField(obj, "ring_threshold_bytes"));
  p.chunkX = static_cast<int>(numberField(obj, "chunk_x"));
  // Tolerant read: "backend" is the current spelling; plans written when
  // the knob was called the kernel variant carry "kernel_variant" with
  // the same value set; older plans have neither and mean "fused".
  // Either key may name a backend that has since been folded into
  // another (currentBackendName).  The "patch_backends" and
  // "patches_per_rank" keys of older plans are ignored.
  const auto be = obj.object.find("backend");
  const auto kv = obj.object.find("kernel_variant");
  if (be != obj.object.end()) {
    if (be->second.type != JsonValue::Type::String)
      throw Error("tuning cache: \"backend\" is not a string");
    p.backend = currentBackendName(be->second.str);
  } else if (kv != obj.object.end()) {
    if (kv->second.type != JsonValue::Type::String)
      throw Error("tuning cache: \"kernel_variant\" is not a string");
    p.backend = currentBackendName(kv->second.str);
  }
  p.precision = stringField(obj, "precision");
  p.precisionAdvice = stringField(obj, "precision_advice");
  p.advisedQuantError = numberField(obj, "advised_quant_error");
  p.source = stringField(obj, "source");
  const JsonValue& ev = field(obj, "evidence");
  if (ev.type != JsonValue::Type::Object)
    throw Error("tuning cache: \"evidence\" is not an object");
  for (const auto& [k, v] : ev.object) {
    if (v.type != JsonValue::Type::Number)
      throw Error("tuning cache: evidence \"" + k + "\" is not a number");
    p.evidence[k] = v.number;
  }
  return p;
}

}  // namespace

const char* halo_mode_name(runtime::HaloMode m) {
  return m == runtime::HaloMode::Sequential ? "sequential" : "overlap";
}

std::string to_json(const TuningKey& key) {
  return '"' + escape(key.toString()) + '"';
}

std::string TuningKey::toString() const {
  return lattice + ":" + std::to_string(extent.x) + "x" +
         std::to_string(extent.y) + "x" + std::to_string(extent.z) + ":r" +
         std::to_string(ranks) + ":" + precision;
}

std::string to_json(const TuningPlan& plan) {
  // Keys in lexicographic order, matching the map-backed sections, so the
  // whole document is byte-stable for identical contents.
  // "kernel_variant" repeats the backend value: binaries from before the
  // backend layer tolerant-read that key, so a new cache file still
  // applies there (and new readers prefer "backend").
  std::ostringstream os;
  os << "{\"advised_quant_error\": " << numStr(plan.advisedQuantError)
     << ", \"backend\": \"" << escape(plan.backend)
     << "\", \"chunk_x\": " << plan.chunkX << ", \"evidence\": {";
  bool first = true;
  for (const auto& [k, v] : plan.evidence) {
    if (!first) os << ", ";
    first = false;
    os << '"' << escape(k) << "\": " << numStr(v);
  }
  os << "}, \"halo_mode\": \"" << halo_mode_name(plan.haloMode)
     << "\", \"kernel_variant\": \"" << escape(plan.backend)
     << "\", \"precision\": \"" << escape(plan.precision)
     << "\", \"precision_advice\": \"" << escape(plan.precisionAdvice)
     << "\", \"ring_threshold_bytes\": " << plan.ringThresholdBytes
     << ", \"source\": \"" << escape(plan.source) << "\"}";
  return os.str();
}

std::string TuningCache::toString() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kTuneSchema << "\",\n  \"plans\": [";
  bool first = true;
  for (const auto& [key, plan] : plans_) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"key\": \"" << escape(key)
       << "\",\n     \"plan\": " << to_json(plan) << "}";
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

  const JsonValue root = Parser(text).parse();
  if (root.type != JsonValue::Type::Object)
    throw Error("tuning cache: root is not an object in " + path);
  const auto schema = root.object.find("schema");
  if (schema == root.object.end() ||
      schema->second.type != JsonValue::Type::String ||
      schema->second.str != kTuneSchema)
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
