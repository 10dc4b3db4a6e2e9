// Auto-tuner (DESIGN.md §9): deterministic plan selection, cache
// round-trip/invalidation, and agreement of the ring-vs-tree pick with
// the network cost model away from the crossover.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/backend.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "perf/network.hpp"
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
  // Same inputs -> byte-identical serialized plans (trialSteps == 0 keeps
  // the search purely model/emulator-driven).
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
  EXPECT_GE(p.chunkX, 1);
  // chunk_x never exceeds the LDM cap recorded in the evidence.
  const auto cap = p.evidence.find("chunk.cap");
  ASSERT_NE(cap, p.evidence.end());
  EXPECT_LE(p.chunkX, static_cast<int>(cap->second));
  EXPECT_GE(p.ringThresholdBytes, std::size_t{1});
  EXPECT_EQ(p.precision, "f64");
  // Without backend trials the model has no evidence to deviate from the
  // production default.
  EXPECT_EQ(p.backend, "fused");
  // The emulator ladder left its evidence behind (auditable plans).
  EXPECT_NE(p.evidence.count("model.halo.fraction"), 0u);
  EXPECT_NE(p.evidence.count("model.coll.crossover_bytes"), 0u);
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
  coll::CollConfig ccfg;
  apply(p, ccfg);
  EXPECT_EQ(ccfg.ringThresholdBytes, p.ringThresholdBytes);
  sw::SwKernelConfig scfg;
  apply(p, scfg);
  EXPECT_EQ(scfg.chunkX, p.chunkX);
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
  cfg.trialCellsPerRank = 1 << 12;  // keep the proxy lattice tiny
  TuningInput in = cavityInput();
  in.ranks = 1;
  const TuningPlan p = Tuner(cfg).plan(in);
  EXPECT_EQ(p.source, "measured");
  EXPECT_NE(find_backend_info(p.backend), nullptr) << p.backend;
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
  // Save -> load -> save is byte-stable.
  EXPECT_EQ(loaded.toString(), cache.toString());
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

TEST(TuningCache, LegacyKernelVariantFieldReadsAsBackend) {
  // A cache written by a pre-backend-layer binary names the knob
  // "kernel_variant" and has no "backend" key; the tolerant reader maps
  // it onto TuningPlan::backend.
  const TuningInput in = cavityInput();
  TuningPlan p = Tuner().plan(in);
  p.backend = "swcpe";
  TuningCache cache;
  cache.store(in.key(), p);
  std::string json = cache.toString();
  const std::string be = "\"backend\": \"swcpe\", ";
  auto pos = json.find(be);
  ASSERT_NE(pos, std::string::npos);
  json.erase(pos, be.size());

  const std::string path = tmpPath("swlb_tune_legacy_kv.json");
  {
    std::ofstream out(path);
    out << json;
  }
  const TuningCache loaded = TuningCache::load(path);
  const auto hit = loaded.lookup(in.key());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->backend, "swcpe");
  EXPECT_EQ(*hit, p);
  fs::remove(path);
}

TEST(TuningCache, RetiredSimdBackendReadsAsFused) {
  // Two retired backends ran the fused kernel: "simd" (its bulk runs now
  // vectorize inside fused) and "threads" (fused on a thread team, which
  // every sub-range backend now gets at the solver's host-thread count).
  // A cached plan naming either must still apply: it reads as "fused"
  // under "backend" and under the legacy "kernel_variant" key, and the
  // retired "patch_backends" and "patches_per_rank" keys are ignored.
  const TuningInput in = cavityInput();
  for (const std::string retired : {"simd", "threads"}) {
    SCOPED_TRACE(retired);
    TuningPlan p = Tuner().plan(in);
    p.backend = retired;
    TuningCache cache;
    cache.store(in.key(), p);
    const std::string json = cache.toString();
    const std::string be = "\"backend\": \"" + retired + "\", ";
    const auto pos = json.find(be);
    ASSERT_NE(pos, std::string::npos);
    std::string legacy = json;
    // Leaves only "kernel_variant": <retired>, plus an old per-patch map
    // and patch count.
    legacy.replace(pos, be.size(),
                   "\"patch_backends\": {\"2\": \"" + retired +
                       "\"}, \"patches_per_rank\": 4, ");

    for (const std::string& text : {json, legacy}) {
      const std::string path = tmpPath("swlb_tune_retired_alias.json");
      {
        std::ofstream out(path);
        out << text;
      }
      const auto hit = TuningCache::load(path).lookup(in.key());
      fs::remove(path);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->backend, "fused");
      std::string name = "swcpe";
      swlb::tune::apply(*hit, name);
      EXPECT_EQ(name, "fused");
    }
  }
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
  {
    std::ofstream out(path);
    out << "{\"schema\": \"swlb-tune-v0\", \"plans\": []}\n";
  }
  // Unknown schema is staleness, not corruption: discard and re-tune.
  EXPECT_TRUE(TuningCache::load(path).empty());
  fs::remove(path);
  // A missing file is also just an empty cache.
  EXPECT_TRUE(TuningCache::load(tmpPath("swlb_tune_missing.json")).empty());
}

TEST(TuningCache, CorruptFileThrows) {
  const std::string path = tmpPath("swlb_tune_corrupt.json");
  {
    std::ofstream out(path);
    out << "{\"schema\": \"swlb-tune-v1\", \"plans\": [{\"key\": ";
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
  p.chunkX = 77;
  // A bad \u escape, and a number token that only starts like one.
  EXPECT_THROW(loadEdited(in.key(), p, "\"MARK\"", "\"\\uzzzz\""), Error);
  EXPECT_THROW(loadEdited(in.key(), p, "\"chunk_x\": 77", "\"chunk_x\": 1-2+3"),
               Error);
  // Integer fields are range-checked before they are converted.
  EXPECT_THROW(loadEdited(in.key(), p, "\"chunk_x\": 77", "\"chunk_x\": 1e300"),
               Error);
  EXPECT_THROW(loadEdited(in.key(), p, "\"chunk_x\": 77", "\"chunk_x\": -1"),
               Error);
}

TEST(TuningCache, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  const std::string path = tmpPath("swlb_tune_deep.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"schema\": \"swlb-tune-v1\", \"plans\": "
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

// ----------------------------------------------- ring-vs-tree crossover

TEST(Tuner, RingTreePickAgreesWithNetworkModelAwayFromCrossover) {
  const sw::MachineSpec machine = sw::MachineSpec::sw26010();
  const perf::NetworkModel net(machine.net, machine.coreGroupsPerProcessor);
  using CA = perf::NetworkModel::CollAlgo;
  for (int ranks : {4, 16, 64, 256}) {
    TuningInput in = cavityInput();
    in.ranks = ranks;
    const TuningPlan p = Tuner().plan(in);
    const std::size_t cross = Tuner::ringCrossoverBytes(machine, ranks);
    EXPECT_EQ(p.ringThresholdBytes, cross) << "ranks=" << ranks;
    // Well below the crossover the model must prefer the tree, well above
    // it the ring — and the plan's choice must match on both sides.
    const std::size_t below = cross / 8, above = cross * 8;
    if (below >= 8) {
      EXPECT_LT(net.collectiveSeconds(CA::Tree, below, ranks),
                net.collectiveSeconds(CA::Ring, below, ranks))
          << "ranks=" << ranks;
      EXPECT_EQ(collectiveChoice(p, below), CollChoice::Tree)
          << "ranks=" << ranks;
    }
    EXPECT_GT(net.collectiveSeconds(CA::Tree, above, ranks),
              net.collectiveSeconds(CA::Ring, above, ranks))
        << "ranks=" << ranks;
    EXPECT_EQ(collectiveChoice(p, above), CollChoice::Ring)
        << "ranks=" << ranks;
  }
}

TEST(Tuner, CrossoverIsExactByte) {
  // Bisection pins the first byte count where the ring is at least as
  // fast as the tree: one byte below it the tree still wins.
  const sw::MachineSpec machine = sw::MachineSpec::sw26010();
  const perf::NetworkModel net(machine.net, machine.coreGroupsPerProcessor);
  using CA = perf::NetworkModel::CollAlgo;
  for (int ranks : {16, 64}) {
    const std::size_t cross = Tuner::ringCrossoverBytes(machine, ranks);
    ASSERT_GT(cross, std::size_t{1});
    ASSERT_LT(cross, std::size_t{1} << 30);
    EXPECT_LE(net.collectiveSeconds(CA::Ring, cross, ranks),
              net.collectiveSeconds(CA::Tree, cross, ranks));
    EXPECT_LT(net.collectiveSeconds(CA::Tree, cross - 1, ranks),
              net.collectiveSeconds(CA::Ring, cross - 1, ranks));
  }
}

}  // namespace
}  // namespace swlb::tune
