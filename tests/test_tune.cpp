// Auto-tuner (DESIGN.md §9): deterministic plan selection, plan
// consumption, and cache round-trip/invalidation.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/backend.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "tune/tuner.hpp"

namespace swlb::tune {
namespace {

namespace fs = std::filesystem;

std::string tmpPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

TuningInput cavityInput() {
  TuningInput in;
  in.lattice = "D3Q19";
  in.extent = {64, 64, 32};
  in.ranks = 4;
  return in;
}

// ------------------------------------------------------------ planning

TEST(Tuner, PlanIsByteDeterministic) {
  // Same inputs -> byte-identical serialized plans (backendTrialSteps == 0
  // keeps the search purely model-driven).
  const TuningInput in = cavityInput();
  const TuningPlan a = Tuner().plan(in);
  const TuningPlan b = Tuner().plan(in);
  EXPECT_EQ(a, b);
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(a.source, "model");
}

TEST(Tuner, PlanRespectsKnobRanges) {
  const TuningInput in = cavityInput();
  const TuningPlan p = Tuner().plan(in);
  EXPECT_EQ(p.precision, "f64");
  // Without backend trials the model has no evidence to deviate from the
  // production default.
  EXPECT_EQ(p.backend, "fused");
  // The model left its evidence behind (auditable plans).
  EXPECT_NE(p.evidence.count("model.halo.fraction"), 0u);
  EXPECT_NE(p.evidence.count("model.bytes_per_lup"), 0u);
}

TEST(Tuner, SingleRankNeverOverlaps) {
  TuningInput in = cavityInput();
  in.ranks = 1;
  const TuningPlan p = Tuner().plan(in);
  // No communication to hide: the simpler schedule wins.
  EXPECT_EQ(p.haloMode, runtime::HaloMode::Sequential);
}

TEST(Tuner, RejectsMalformedInputs) {
  TuningInput in = cavityInput();
  in.extent = {0, 64, 64};
  EXPECT_THROW(Tuner().plan(in), Error);
  in = cavityInput();
  in.ranks = 0;
  EXPECT_THROW(Tuner().plan(in), Error);
  in = cavityInput();
  in.lattice = "D3Q7";
  EXPECT_THROW(Tuner().plan(in), Error);
  in = cavityInput();
  in.precision = "f8";
  EXPECT_THROW(Tuner().plan(in), Error);
}

TEST(Tuner, AppliesPlanToSubsystemConfigs) {
  const TuningPlan p = Tuner().plan(cavityInput());
  runtime::HaloMode mode = runtime::HaloMode::Sequential;
  apply(p, mode);
  EXPECT_EQ(mode, p.haloMode);
}

TEST(Tuner, AppliesBackendToSolverKnobs) {
  TuningPlan p = Tuner().plan(cavityInput());
  // The registry-name overload drives the string-typed configs.  (Qualified
  // calls: a std::string argument would otherwise drag std::apply into the
  // ADL overload set, which hard-errors on non-tuple arguments.)
  std::string name = "swcpe";
  swlb::tune::apply(p, name);  // "fused" plan overrides the caller's value
  EXPECT_EQ(name, "fused");
  p.backend = "esoteric";
  swlb::tune::apply(p, name);
  EXPECT_EQ(name, "esoteric");
  // Uncatalogued names (from a newer cache schema) leave the caller's
  // value untouched.
  p.backend = "warp-speculative";
  swlb::tune::apply(p, name);
  EXPECT_EQ(name, "esoteric");
}

TEST(Tuner, BackendTrialsPickFromMeasuredLadder) {
  TunerConfig cfg;
  cfg.backendTrialSteps = 2;
  const TuningInput in = cavityInput();
  ASSERT_EQ(Tuner().plan(in).haloMode, runtime::HaloMode::Overlap);
  const TuningPlan p = Tuner(cfg).plan(in);
  EXPECT_EQ(p.source, "measured");
  EXPECT_NE(find_backend_info(p.backend), nullptr) << p.backend;
  // The model's Overlap stands only when the pick can run it (fused); an
  // in-place pick (esoteric) plans Sequential.
  EXPECT_EQ(p.haloMode,
            runtime::halo_mode_for(p.backend, runtime::HaloMode::Overlap))
      << p.backend;
  // The trial ladder leaves auditable MLUPS evidence for every rung.
  EXPECT_NE(p.evidence.count("trial.backend.fused_mlups"), 0u);
  EXPECT_NE(p.evidence.count("trial.backend.esoteric_mlups"), 0u);
}

// --------------------------------------------------------------- cache

TEST(TuningCache, RoundTripsThroughDisk) {
  const TuningInput in = cavityInput();
  const TuningPlan p = Tuner().plan(in);
  TuningCache cache;
  cache.store(in.key(), p);
  const std::string path = tmpPath("swlb_tune_roundtrip.json");
  cache.save(path);

  const TuningCache loaded = TuningCache::load(path);
  EXPECT_EQ(loaded.size(), 1u);
  const auto hit = loaded.lookup(in.key());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, p);  // every field, evidence map included
  // Save -> load -> save is byte-stable, under the v2 tag.
  EXPECT_EQ(loaded.toString(), cache.toString());
  EXPECT_NE(cache.toString().find("\"schema\": \"swlb-tune-v2\""),
            std::string::npos);
  fs::remove(path);
}

TEST(TuningCache, BackendSurvivesRoundTrip) {
  const TuningInput in = cavityInput();
  TuningPlan p = Tuner().plan(in);
  p.backend = "esoteric";
  TuningCache cache;
  cache.store(in.key(), p);
  const std::string path = tmpPath("swlb_tune_variant.json");
  cache.save(path);
  const TuningCache loaded = TuningCache::load(path);
  const auto hit = loaded.lookup(in.key());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->backend, "esoteric");
  EXPECT_EQ(*hit, p);
  fs::remove(path);
}

TEST(TuningCache, MissesOnAnyKeyMismatch) {
  const TuningInput in = cavityInput();
  TuningCache cache;
  cache.store(in.key(), Tuner().plan(in));

  TuningKey k = in.key();
  k.extent.x = 128;
  EXPECT_FALSE(cache.lookup(k).has_value());
  k = in.key();
  k.ranks = 8;
  EXPECT_FALSE(cache.lookup(k).has_value());
  k = in.key();
  k.precision = "f32";
  EXPECT_FALSE(cache.lookup(k).has_value());
  k = in.key();
  k.lattice = "D2Q9";
  EXPECT_FALSE(cache.lookup(k).has_value());
  EXPECT_TRUE(cache.lookup(in.key()).has_value());
}

TEST(TuningCache, StaleSchemaLoadsEmpty) {
  const std::string path = tmpPath("swlb_tune_stale.json");
  // Unknown schema is staleness, not corruption: discard and re-tune.  A
  // v1 file (with its chunk_x, ring_threshold_bytes and kernel_variant
  // fields) is stale too.
  for (const std::string text :
       {"{\"schema\": \"swlb-tune-v0\", \"plans\": []}\n",
        "{\n  \"schema\": \"swlb-tune-v1\",\n  \"plans\": [\n    {\"key\": "
        "\"D3Q19:64x64x32:r4:f64\",\n     \"plan\": {\"advised_quant_error\": "
        "5.9604644775390625e-08, \"backend\": \"fused\", \"chunk_x\": 32, "
        "\"evidence\": {\"chunk.cap\": 32}, \"halo_mode\": \"overlap\", "
        "\"kernel_variant\": \"fused\", \"precision\": \"f64\", "
        "\"precision_advice\": \"\", \"ring_threshold_bytes\": 12026, "
        "\"source\": \"model\"}}\n  ]\n}\n"}) {
    {
      std::ofstream out(path);
      out << text;
    }
    EXPECT_TRUE(TuningCache::load(path).empty()) << text;
  }
  fs::remove(path);
  // A missing file is also just an empty cache.
  EXPECT_TRUE(TuningCache::load(tmpPath("swlb_tune_missing.json")).empty());
}

TEST(TuningCache, CorruptFileThrows) {
  const std::string path = tmpPath("swlb_tune_corrupt.json");
  {
    std::ofstream out(path);
    out << "{\"schema\": \"swlb-tune-v2\", \"plans\": [{\"key\": ";
  }
  EXPECT_THROW(TuningCache::load(path), Error);
  fs::remove(path);
}

/// A cache file whose plan is `p` with `from` replaced by `to` in its
/// text, loaded back.
TuningCache loadEdited(const TuningKey& key, const TuningPlan& p,
                       const std::string& from, const std::string& to) {
  TuningCache cache;
  cache.store(key, p);
  std::string json = cache.toString();
  const auto pos = json.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) json.replace(pos, from.size(), to);
  const std::string path = tmpPath("swlb_tune_edited.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << json;
  }
  struct Remove {
    std::string path;
    ~Remove() { fs::remove(path); }
  } remove{path};
  return TuningCache::load(path);
}

TEST(TuningCache, UnicodeEscapeReadsAsUtf8) {
  const TuningInput in = cavityInput();
  TuningPlan p = Tuner().plan(in);
  p.precisionAdvice = "MARK";
  const auto hit = loadEdited(in.key(), p, "\"MARK\"", "\"\\u4e2d\"")
                       .lookup(in.key());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->precisionAdvice, "\xe4\xb8\xad");  // U+4E2D in UTF-8
}

TEST(TuningCache, MalformedTextThrowsError) {
  const TuningInput in = cavityInput();
  TuningPlan p = Tuner().plan(in);
  p.precisionAdvice = "MARK";
  p.advisedQuantError = 77;
  // A bad \u escape, and a number token that only starts like one.
  EXPECT_THROW(loadEdited(in.key(), p, "\"MARK\"", "\"\\uzzzz\""), Error);
  EXPECT_THROW(loadEdited(in.key(), p, "\"advised_quant_error\": 77",
                          "\"advised_quant_error\": 1-2+3"),
               Error);
}

TEST(TuningCache, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  const std::string path = tmpPath("swlb_tune_deep.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"schema\": \"swlb-tune-v2\", \"plans\": "
        << std::string(2000000, '[');
  }
  EXPECT_THROW(TuningCache::load(path), Error);
  fs::remove(path);
}

TEST(TuningCache, NonFiniteNumbersWriteNullAndReadBackAsNaN) {
  const TuningInput in = cavityInput();
  TuningPlan p = Tuner().plan(in);
  p.advisedQuantError = std::numeric_limits<double>::infinity();
  p.evidence["probe"] = std::numeric_limits<double>::quiet_NaN();
  TuningCache cache;
  cache.store(in.key(), p);
  const std::string json = cache.toString();
  EXPECT_NE(json.find("\"advised_quant_error\": null"), std::string::npos);
  EXPECT_NE(json.find("\"probe\": null"), std::string::npos);
  const auto hit = loadEdited(in.key(), p, "\"probe\"", "\"probe\"")
                       .lookup(in.key());
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(std::isnan(hit->advisedQuantError));
  EXPECT_TRUE(std::isnan(hit->evidence.at("probe")));
}

TEST(TuningCache, CachedPlanSkipsTheSearch) {
  const TuningInput in = cavityInput();
  obs::MetricsRegistry reg;
  obs::ScopedBind bind(nullptr, &reg);
  TuningCache cache;
  const Tuner tuner;
  const TuningPlan first = tuner.planCached(cache, in);
  const TuningPlan second = tuner.planCached(cache, in);
  EXPECT_EQ(first, second);
  EXPECT_EQ(reg.counterValue("tune.cache.miss"), 1u);
  EXPECT_EQ(reg.counterValue("tune.cache.hit"), 1u);
  // Only the miss ran the search.
  EXPECT_EQ(reg.counterValue("tune.plans"), 1u);
}

}  // namespace
}  // namespace swlb::tune
