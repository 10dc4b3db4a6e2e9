// Tuning plans and their cache key (DESIGN.md §9).
//
// A TuningPlan is the auto-tuner's output: one value per performance knob
// the runtime exposes (halo scheduling, collective ring threshold, CPE
// LDM chunk width) plus an *advisory* storage-precision report — the
// tuner never switches precision behind the user's back, because storage
// precision changes the results (DESIGN.md §8).  Every number that went
// into the decision is kept in `evidence`, so a plan is auditable after
// the fact and diffable across machines.
//
// Plans are keyed by (lattice, global extent, ranks, storage precision):
// the four inputs that change the communication/computation balance the
// knobs trade against.  Serialization is byte-deterministic (std::map
// ordering, %.17g doubles), so identical inputs give identical plan files
// — the property test_tune pins down.
#pragma once

#include <cstdint>
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

/// One resolved configuration: what each subsystem should run with.
struct TuningPlan {
  /// Halo scheduling for DistributedSolver::Config::mode.
  runtime::HaloMode haloMode = runtime::HaloMode::Overlap;
  /// Size threshold (bytes) for coll::CollConfig::ringThresholdBytes:
  /// payloads at or above it run the ring, smaller ones the tree.  Set to
  /// the model crossover of NetworkModel::collectiveSeconds.
  std::size_t ringThresholdBytes = 64 * 1024;
  /// LDM x-chunk width for sw::SwKernelConfig::chunkX (cells; >= 1 and
  /// <= sw::max_chunk_x for the target block).
  int chunkX = 32;
  /// Stream/collide backend for Solver/DistributedSolver
  /// (registry name, core/backend.hpp: "fused" | "esoteric" | ...).
  /// "fused" unless wall-clock backend trials (TunerConfig::
  /// backendTrialSteps > 0) found a faster one.  Serialized as "backend";
  /// cache files from before the backend layer carry the same value
  /// under "kernel_variant" and parse into this field; the retired names
  /// "simd" and "threads" read as "fused", which runs the same kernel at
  /// the solver's host-thread count.
  std::string backend = "fused";
  /// Storage precision the plan was tuned for (matches the key).
  std::string precision = "f64";
  /// Human-readable advisory: what a smaller storage type would buy and
  /// cost for this problem.  Informational only — never auto-applied.
  std::string precisionAdvice;
  /// Relative quantization bound of the *advised* storage type's stored
  /// deviation (StorageTraits<S>::kEpsilon; dimensionless).
  double advisedQuantError = 0;
  /// "model" when the plan came from the deterministic model/emulator
  /// search, "measured" when wall-clock trials overrode the halo pick.
  std::string source = "model";
  /// Every number the search looked at, by name: modeled seconds per
  /// candidate, trial measurements, cross-check ratios.
  std::map<std::string, double> evidence;

  friend bool operator==(const TuningPlan&, const TuningPlan&) = default;
};

/// The ring-vs-tree choice a plan implies for a `payloadBytes` collective
/// (mirrors Collectives::resolve under the plan's threshold).
enum class CollChoice { Tree, Ring };
inline CollChoice collectiveChoice(const TuningPlan& plan,
                                   std::size_t payloadBytes) {
  return payloadBytes >= plan.ringThresholdBytes ? CollChoice::Ring
                                                 : CollChoice::Tree;
}

/// Byte-deterministic JSON of one plan / one key (object literals; see
/// cache.cpp for the grammar the parser accepts).
std::string to_json(const TuningPlan& plan);
std::string to_json(const TuningKey& key);

const char* halo_mode_name(runtime::HaloMode m);

}  // namespace swlb::tune
