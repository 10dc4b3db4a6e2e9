// Tuning plans and their cache key (DESIGN.md §9).
//
// A TuningPlan is the auto-tuner's output: the two knobs a run applies —
// the halo schedule and the stream/collide backend — plus an *advisory*
// storage-precision report; the tuner never switches precision behind
// the user's back, because storage precision changes the results
// (DESIGN.md §8).  Every number that went into the decision is kept in
// `evidence`, so a plan is auditable after the fact and diffable across
// machines.
//
// Plans are keyed by (lattice, global extent, ranks, storage precision):
// the four inputs that change the communication/computation balance the
// knobs trade against.  Serialization is byte-deterministic (std::map
// ordering, %.17g doubles), so identical inputs give identical plan files
// — the property test_tune pins down.
#pragma once

#include <map>
#include <string>

#include "core/common.hpp"
#include "runtime/halo.hpp"

namespace swlb::tune {

/// Identity of the tuned problem.  Two runs with equal keys may reuse one
/// plan; any field changing invalidates the cache entry (lookup misses).
struct TuningKey {
  std::string lattice = "D3Q19";  ///< lattice descriptor name (D3Q19, D2Q9)
  Int3 extent{0, 0, 0};           ///< global interior cells
  int ranks = 1;                  ///< world size the plan was tuned for
  std::string precision = "f64";  ///< storage precision tag (f64/f32/f16)

  /// Canonical flat form, e.g. "D3Q19:64x64x64:r4:f64" — the cache-file
  /// key and the name tuning rows appear under in bench reports.
  std::string toString() const;

  friend bool operator==(const TuningKey&, const TuningKey&) = default;
};

/// One resolved configuration: what a run should apply.
struct TuningPlan {
  /// Halo scheduling for DistributedSolver::Config::mode.  Always one the
  /// plan's backend can run (runtime::halo_mode_for).
  runtime::HaloMode haloMode = runtime::HaloMode::Overlap;
  /// Stream/collide backend for Solver/DistributedSolver
  /// (registry name, core/backend.hpp: "fused" | "esoteric" | ...).
  /// "fused" unless wall-clock backend trials (TunerConfig::
  /// backendTrialSteps > 0) found a faster one.
  std::string backend = "fused";
  /// Storage precision the plan was tuned for (matches the key).
  std::string precision = "f64";
  /// Human-readable advisory: what a smaller storage type would buy and
  /// cost for this problem.  Informational only — never auto-applied.
  std::string precisionAdvice;
  /// Relative quantization bound of the *advised* storage type's stored
  /// deviation (StorageTraits<S>::kEpsilon; dimensionless).
  double advisedQuantError = 0;
  /// "model" when the plan came from the deterministic model search,
  /// "measured" when wall-clock backend trials ran.
  std::string source = "model";
  /// Every number the search looked at, by name: modeled seconds and
  /// bytes, trial measurements.
  std::map<std::string, double> evidence;

  friend bool operator==(const TuningPlan&, const TuningPlan&) = default;
};

/// Byte-deterministic JSON of one plan / one key (object literals; see
/// cache.hpp for the file format).
std::string to_json(const TuningPlan& plan);
std::string to_json(const TuningKey& key);

const char* halo_mode_name(runtime::HaloMode m);

}  // namespace swlb::tune
