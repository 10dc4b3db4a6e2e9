// Auto-tuner (DESIGN.md §9): the one audited decision point for the
// knobs a run applies at startup — the halo schedule
// (runtime::HaloMode) and the stream/collide backend — plus an advisory
// on storage precision (StorageTraits).  It derives a TuningPlan from
//
//   * the perf models (NetworkModel halo cost against LbmCostModel
//     traffic) — deterministic, byte-identical plans for equal inputs;
//   * optional short wall-clock backend trials (backendTrialSteps > 0)
//     on a single-rank proxy block, recorded as evidence.
//
// Search activity is metered: one "tune.search" trace phase, counters
// tune.plans / tune.trials.backend / tune.cache.hit|miss, and gauges with
// the chosen values — so a tuned run's Chrome trace shows what was
// decided and why.
#pragma once

#include "tune/cache.hpp"
#include "tune/plan.hpp"

namespace swlb::tune {

/// The problem the plan is for; every field is part of the cache key.
/// The models are priced for the SW26010 (sw::MachineSpec::sw26010()).
struct TuningInput {
  std::string lattice = "D3Q19";  ///< "D3Q19" or "D2Q9"
  Int3 extent{0, 0, 0};           ///< global interior cells (> 0 each)
  int ranks = 1;                  ///< world size (>= 1)
  std::string precision = "f64";  ///< storage tag: "f64" | "f32" | "f16"

  TuningKey key() const { return {lattice, extent, ranks, precision}; }
};

struct TunerConfig {
  /// Steps per wall-clock backend trial (the registry ladder — fused,
  /// esoteric — on a single-rank proxy).  0 (default) skips the ladder
  /// and keeps the plan's "fused" default — and the search
  /// byte-deterministic.
  int backendTrialSteps = 0;
};

class Tuner {
 public:
  explicit Tuner(const TunerConfig& cfg = {}) : cfg_(cfg) {}

  /// Run the search and return the plan.  Deterministic (byte-identical
  /// plans for equal inputs) when cfg.backendTrialSteps == 0.
  TuningPlan plan(const TuningInput& in) const;

  /// Cache-aware wrapper: return the cached plan on a key hit, otherwise
  /// search and store the result in `cache` (the caller saves the file).
  TuningPlan planCached(TuningCache& cache, const TuningInput& in) const;

 private:
  TunerConfig cfg_;
};

// ---- plan consumption --------------------------------------------------
// Each apply() writes the plan's value into one subsystem's config and
// meters it (counter tune.plan.applied + a gauge per knob), so startup
// consumption is visible in traces and bench reports.

/// DistributedSolver: halo scheduling (write into Config::mode).
void apply(const TuningPlan& plan, runtime::HaloMode& mode);
/// Stream/collide backend by registry name (Solver::setBackend /
/// DistributedSolver::Config::backend).
/// Names that are not catalogued (newer plan files) keep the current
/// value (forward compatibility).
void apply(const TuningPlan& plan, std::string& backend);

/// One-line human summary of a plan (CLI output).
std::string summary(const TuningPlan& plan);

}  // namespace swlb::tune
