// Auto-tuner (DESIGN.md §9): closes the loop between the observability
// layer and the runtime's performance knobs.
//
// After PRs 1-4 every knob of the paper's hand-tuning story exists in
// code — halo overlap (runtime::HaloMode), collective algorithm selection
// (coll::CollConfig::ringThresholdBytes), CPE LDM blocking
// (sw::SwKernelConfig::chunkX) and storage precision (StorageTraits) —
// but each was a scattered compile-time or CLI default.  The Tuner is the
// one audited decision point: it derives a TuningPlan from
//
//   * the perf models (NetworkModel halo/collective costs, LbmCostModel
//     traffic) — deterministic, byte-identical plans for equal inputs;
//   * deterministic trials on the sw emulator (CpeCluster is sequential
//     and its DMA/fabric seconds are modeled, so a chunk_x ladder run
//     through sw_stream_collide is itself reproducible);
//   * optional short wall-clock trials (trialSteps > 0) through the
//     StepProfiler/World plumbing, recorded as evidence and cross-checked
//     against the model; they may override only the halo-mode pick.
//
// Search activity is metered: one "tune.search" trace phase, counters
// tune.plans / tune.trials.* / tune.cache.hit|miss, and gauges with the
// chosen knob values — so a tuned run's Chrome trace shows what was
// decided and why.
#pragma once

#include "coll/coll.hpp"
#include "sw/spec.hpp"
#include "sw/sw_kernels.hpp"
#include "tune/cache.hpp"
#include "tune/plan.hpp"

namespace swlb::tune {

/// The problem the plan is for.  lattice/extent/ranks/precision form the
/// cache key; the machine spec parameterizes the models and the emulator.
struct TuningInput {
  std::string lattice = "D3Q19";  ///< "D3Q19" or "D2Q9"
  Int3 extent{0, 0, 0};           ///< global interior cells (> 0 each)
  int ranks = 1;                  ///< world size (>= 1)
  std::string precision = "f64";  ///< storage tag: "f64" | "f32" | "f16"
  sw::MachineSpec machine = sw::MachineSpec::sw26010();

  TuningKey key() const { return {lattice, extent, ranks, precision}; }
};

struct TunerConfig {
  /// Steps per wall-clock halo trial; 0 (default) keeps the search purely
  /// model/emulator-driven and therefore byte-deterministic.
  int trialSteps = 0;
  /// With trials enabled, adopt the measured halo-mode winner when the
  /// two modes differ by more than `measuredMargin`; otherwise keep the
  /// model's pick (ties and noise must not flip plans).
  bool preferMeasuredHalo = true;
  /// Minimum measured advantage (relative) to override the model.
  double measuredMargin = 0.05;
  /// Overlap is selected when modeled halo time exceeds this fraction of
  /// the modeled compute time (the overlap scheme's frontier pass is not
  /// free, so negligible communication keeps the simpler schedule).
  double overlapMinHaloFraction = 0.01;
  /// Cells per rank above which wall-clock trials run on a proportionally
  /// shrunk proxy domain instead of the full one.
  std::size_t trialCellsPerRank = 32768;
  /// Steps per wall-clock backend trial (the registry ladder — fused,
  /// esoteric — on a single-rank proxy).  0 (default)
  /// skips the ladder and keeps the plan's "fused" default — and the
  /// search byte-deterministic.
  int backendTrialSteps = 0;
};

class Tuner {
 public:
  explicit Tuner(const TunerConfig& cfg = {}) : cfg_(cfg) {}

  /// Run the search and return the plan.  Deterministic (byte-identical
  /// plans for equal inputs) when cfg.trialSteps == 0.
  TuningPlan plan(const TuningInput& in) const;

  /// Cache-aware wrapper: return the cached plan on a key hit, otherwise
  /// search and store the result in `cache` (the caller saves the file).
  TuningPlan planCached(TuningCache& cache, const TuningInput& in) const;

  /// The model's ring threshold: the payload size where
  /// NetworkModel::collectiveSeconds(Tree) crosses (Ring) for `ranks`,
  /// found by bisection (exposed for tests/benches).
  static std::size_t ringCrossoverBytes(const sw::MachineSpec& machine,
                                        int ranks);

  const TunerConfig& config() const { return cfg_; }

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
/// coll::Collectives: ring/tree size threshold.
void apply(const TuningPlan& plan, coll::CollConfig& cfg);
/// sw kernels: LDM chunk width (clamped to >= 1).
void apply(const TuningPlan& plan, sw::SwKernelConfig& cfg);

/// One-line human summary of a plan (CLI output).
std::string summary(const TuningPlan& plan);

}  // namespace swlb::tune
