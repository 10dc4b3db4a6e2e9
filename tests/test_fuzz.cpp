// Seeded malformed-input sweep: every reader of outside input — the JSON
// parser, serve::decode_line, a serve Session, TuningCache::load and
// io::load_checkpoint — gets valid documents truncated at every byte,
// with bytes flipped and inserted at splitmix64-chosen places, and nested
// past the parser's cap.  Each case must end in a value or a swlb::Error:
// never a crash, a hang, or another exception type.  The seeds are fixed,
// so every run sweeps the same cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "io/checkpoint.hpp"
#include "io/json.hpp"
#include "obs/bench_report.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "tune/cache.hpp"

namespace swlb {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr int kEditsPerSeed = 150;  ///< byte flips, and as many insertions

struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

/// Malformed variants of `doc`: every proper prefix, then per seed
/// kEditsPerSeed one-bit flips and kEditsPerSeed insertions of bytes the
/// grammar cares about.
std::vector<std::string> mutations(const std::string& doc) {
  static const std::string palette = [] {
    std::string p = "{}[]\":,\\/-+.eE019nultrfasu \t\r\n\x01\x1f\x7f\x80\xff";
    p.push_back('\0');
    return p;
  }();
  std::vector<std::string> out;
  for (std::size_t k = 0; k < doc.size(); ++k) out.push_back(doc.substr(0, k));
  for (const std::uint64_t seed : kSeeds) {
    SplitMix64 rng{seed};
    for (int i = 0; i < kEditsPerSeed; ++i) {
      std::string flipped = doc;
      flipped[rng.below(doc.size())] ^= static_cast<char>(1u << rng.below(8));
      out.push_back(std::move(flipped));
      std::string inserted = doc;
      inserted.insert(rng.below(doc.size() + 1), 1,
                      palette[rng.below(palette.size())]);
      out.push_back(std::move(inserted));
    }
  }
  return out;
}

/// `doc` wrapped in arrays and objects around and past the nesting cap,
/// plus unbalanced openers far beyond it.
std::vector<std::string> nestings(const std::string& doc) {
  std::vector<std::string> out;
  for (const int depth :
       {io::kJsonMaxDepth - 1, io::kJsonMaxDepth + 1, 100000}) {
    const auto d = static_cast<std::size_t>(depth);
    out.push_back(std::string(d, '[') + doc + std::string(d, ']'));
    std::string obj;
    for (std::size_t i = 0; i < d; ++i) obj += "{\"a\":";
    out.push_back(obj + doc + std::string(d, '}'));
  }
  out.push_back(std::string(2000000, '['));
  out.push_back("{\"op\":" + std::string(2000000, '['));
  return out;
}

/// Runs `read` on every input; each must return or throw swlb::Error.
/// Returns how many returned a value.
std::size_t sweep(const std::vector<std::string>& inputs,
                  const std::function<void(const std::string&)>& read) {
  std::size_t values = 0;
  for (const std::string& in : inputs) {
    try {
      read(in);
      ++values;
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-swlb exception '" << e.what() << "' for input "
                    << io::json_quote(in.substr(0, 200));
    }
  }
  return values;
}

std::vector<std::string> malformed(const std::string& doc) {
  std::vector<std::string> all = mutations(doc);
  for (std::string& n : nestings(doc)) all.push_back(std::move(n));
  return all;
}

std::string submitLine() {
  serve::WireMap req;
  req["op"] = serve::WireValue::ofString("submit");
  req["tenant"] = serve::WireValue::ofString("acme");
  req["steps"] = serve::WireValue::ofNumber(20);
  req["priority"] = serve::WireValue::ofNumber(2);
  req["cfg.case"] = serve::WireValue::ofString("cavity");
  req["cfg.nx"] = serve::WireValue::ofString("6");
  req["cfg.ny"] = serve::WireValue::ofString("6");
  req["cfg.nz"] = serve::WireValue::ofString("6");
  req["flag"] = serve::WireValue::ofBool(true);
  return serve::encode_line(req);
}

std::string cacheText() {
  tune::TuningKey key;
  key.extent = {64, 64, 32};
  key.ranks = 4;
  tune::TuningPlan plan;
  plan.precisionAdvice = "f32 halves the bytes; \"quoted\" \\ advice";
  plan.advisedQuantError = 5.96e-8;
  plan.source = "model";
  plan.evidence = {{"model.halo.fraction", 0.0125}, {"chunk.cap", 64}};
  tune::TuningCache cache;
  cache.store(key, plan);
  return cache.toString();
}

std::string benchText() {
  obs::BenchReport report("bench_fuzz");
  obs::BenchReport::Result& r = report.add("case-a");
  r.set("mlups", 12.5);
  r.set("steps", 100);
  r.setText("size", "16x16x1");
  std::ostringstream os;
  report.write(os);
  return os.str();
}

std::string traceText() {
  obs::Tracer tracer;
  const auto t0 = obs::Tracer::Clock::now();
  tracer.record("step", t0, t0 + std::chrono::microseconds(250), 0);
  tracer.record("halo.wait", t0, t0 + std::chrono::microseconds(3), 1);
  std::ostringstream os;
  tracer.writeChromeTrace(os);
  return os.str();
}

TEST(MalformedInput, JsonParserReturnsValueOrError) {
  for (const std::string& doc :
       {submitLine(), cacheText(), benchText(), traceText()}) {
    ASSERT_NO_THROW(io::parse_json(doc, "fuzz")) << doc;
    const std::vector<std::string> inputs = malformed(doc);
    const std::size_t values = sweep(
        inputs, [](const std::string& in) { io::parse_json(in, "fuzz"); });
    // Some edits keep the document valid (a flipped letter inside a
    // string), most do not: both outcomes must occur.
    EXPECT_GT(values, 0u);
    EXPECT_LT(values, inputs.size());
  }
}

TEST(MalformedInput, WireLinesDecodeOrThrow) {
  const std::vector<std::string> inputs = malformed(submitLine());
  const std::size_t values = sweep(
      inputs, [](const std::string& in) { serve::decode_line(in); });
  EXPECT_GT(values, 0u);
  EXPECT_LT(values, inputs.size());
}

TEST(MalformedInput, ServeSessionAnswersEveryLine) {
  const fs::path dir = fs::temp_directory_path() / "swlb_fuzz_serve";
  fs::remove_all(dir);
  fs::create_directories(dir);
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.checkpointDir = dir.string();
  cfg.startPaused = true;  // accepted jobs wait; the sweep runs no solver
  serve::Server server(cfg);
  serve::Session& session = server.openSession();
  std::vector<std::string> lines = malformed(submitLine());
  for (std::string& line : malformed("{\"job\":1,\"op\":\"status\"}"))
    lines.push_back(std::move(line));
  std::size_t errors = 0;
  for (const std::string& line : lines) {
    bool decodes = true;
    try {
      serve::decode_line(line);
    } catch (const Error&) {
      decodes = false;
    }
    session.request(line);  // dispatch is synchronous: the reply is queued
    const auto reply = session.tryNextEvent();
    ASSERT_TRUE(reply.has_value()) << io::json_quote(line.substr(0, 200));
    const std::string event =
        serve::wire_string(serve::decode_line(*reply), "event", "");
    if (!decodes) {
      EXPECT_EQ(event, "error") << *reply;
      ++errors;
    }
    while (session.tryNextEvent()) {
    }
  }
  EXPECT_GT(errors, 0u);
  server.shutdown();
  fs::remove_all(dir);
}

TEST(MalformedInput, TuningCacheLoadsOrThrows) {
  const fs::path path = fs::temp_directory_path() / "swlb_fuzz_cache.json";
  const std::vector<std::string> inputs = malformed(cacheText());
  const std::size_t values = sweep(inputs, [&](const std::string& in) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << in;
    }
    tune::TuningCache::load(path.string());
  });
  EXPECT_GT(values, 0u);
  EXPECT_LT(values, inputs.size());
  fs::remove(path);
}

TEST(MalformedInput, CheckpointReaderLoadsOrThrows) {
  // A small valid checkpoint, truncated at every byte and flipped at
  // every header byte and at seeded places in the shift table and payload.
  const fs::path path = fs::temp_directory_path() / "swlb_fuzz.ckpt";
  const auto makeSolver = [] {
    Solver<D2Q9> s(Grid(4, 4, 1), CollisionConfig{},
                   Periodicity{true, true, true});
    s.finalizeMask();
    s.initUniform(1.0, {0.02, 0, 0});
    return s;
  };
  Solver<D2Q9> source = makeSolver();
  source.run(3);
  io::save_checkpoint(path.string(), source);
  std::string valid;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    valid = buf.str();
  }
  ASSERT_GT(valid.size(), 64u);

  std::vector<std::string> inputs;
  for (std::size_t k = 0; k < valid.size(); ++k)
    inputs.push_back(valid.substr(0, k));
  for (const std::uint64_t seed : kSeeds) {
    SplitMix64 rng{seed};
    for (std::size_t b = 0; b < 64; ++b) {  // every header byte
      std::string flipped = valid;
      flipped[b] ^= static_cast<char>(1u << rng.below(8));
      inputs.push_back(std::move(flipped));
    }
    for (int i = 0; i < kEditsPerSeed; ++i) {
      std::string flipped = valid;
      flipped[64 + rng.below(valid.size() - 64)] ^=
          static_cast<char>(1u << rng.below(8));
      inputs.push_back(std::move(flipped));
    }
  }
  inputs.push_back(valid + "trailing");

  Solver<D2Q9> target = makeSolver();
  const std::size_t values = sweep(inputs, [&](const std::string& in) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << in;
    }
    io::load_checkpoint(path.string(), target);
  });
  EXPECT_LT(values, inputs.size());
  fs::remove(path);
}

}  // namespace
}  // namespace swlb
