// Kernel-backend concept (DESIGN.md §14): the one interface every
// stream/collide execution strategy implements, so Solver — the block
// engine DistributedSolver and PatchSolver also run their blocks on —
// dispatches through a registry instead of per-variant switch statements
// — the miniLB-style portability layer (PAPERS.md, arXiv:2409.16781).  A backend owns *what* one fused LBM
// update computes (fused sweep, the SW CPE emulator, in-place
// Esoteric-Pull); the solvers own *when*: halo wraps, exchanges, parity,
// observables.  How many host threads run it is neither's business: the
// solvers call the non-virtual entry points (run, runInPlaceEven/Odd),
// which slice caps.subRange backends over one persistent team
// (core/kernels_team.hpp) and call every other backend once.
//
// Contract summary (details on each hook below):
//
//   * step() performs exactly one two-lattice stream/collide update of
//     `range` and must be bit-identical to stream_collide_fused for the
//     same storage type whenever caps.bitIdentical is set.
//   * In-place backends (caps.inPlaceStreaming) implement the
//     stepInPlaceEven/Odd pair instead; step() throws.  The in-place
//     phase contract IS the Esoteric-Pull rotated layout (DESIGN.md §11):
//     after an even sweep, f_i*(x) lives at slot opp(i) of x + c_i, and
//     Solver's readers decode through EsotericPhase1View.
//   * A caps.subRange backend's step hooks run concurrently on disjoint
//     z-slabs of one call's range; the others are called once from the
//     solver's step thread.  Calls never overlap each other.
//
// Units: cost hints are dimensionless ratios; `threads` is a host-thread
// count where <= 0 means "one per hardware core".
#pragma once

#include <string>
#include <vector>

#include "core/kernels_team.hpp"

namespace swlb {

/// What a backend can and cannot do.  Solvers check these flags up front
/// and reject unsupported combinations with a named error — never fall
/// back silently to another backend.
struct BackendCaps {
  /// Streams in place in a single buffer (Esoteric-Pull).  Implies the
  /// stepInPlaceEven/Odd pair, the rotated phase-1 layout, 0.5x
  /// population memory, and rejection by PatchSolver (patch ghost
  /// exchange needs the two-lattice A-B contract).
  bool inPlaceStreaming = false;
  /// Handles CellClass::Outflow.  In-place streaming cannot (the
  /// extrapolating copy would race the neighbour's own update), so
  /// init() rejects masks containing Outflow cells when this is off.
  bool supportsOutflow = true;
  /// Step-synchronous full-domain semantics usable under
  /// DistributedSolver / PatchSolver.  Off for the single-rank ablation
  /// baselines (twostep, push).
  bool distributed = true;
  /// step() over disjoint z-slabs of `range`, run concurrently, equals
  /// one step() over `range`.  The executor slices such backends across
  /// the solver's host threads, and DistributedSolver's overlap schedule
  /// relies on it for its inner/shell split.  Off for push (its scatter
  /// writes outside `range` in an order-dependent way) and whole-block
  /// backends (swcpe: DistributedSolver rejects the Overlap mode).
  bool subRange = true;
  /// Output is bit-identical to stream_collide_fused at equal storage.
  /// The conformance harness enforces bitwise equality where set and a
  /// quantization bound otherwise.
  bool bitIdentical = true;
  /// Populations after N steps align step-for-step with the pull
  /// family's trajectory.  Off for push (collide-then-stream sits a
  /// half-update away); such backends are checked via invariants (mass
  /// conservation) instead of lockstep identity.
  bool stepConformant = true;
};

/// A-priori cost hints.  Trials measure the real rate; hints only size
/// work that must stay interactive (bench_backends trims the emulator's
/// reps by them).
struct BackendCostHints {
  /// Expected throughput multiplier vs the fused backend on the same
  /// host (dimensionless; 1.0 = parity).  Advisory only — measured
  /// trial MLUPS always override it.
  double relativeRate = 1.0;
};

/// Registry/docs entry for one backend: identity, one-line summary, and
/// the flags/hints above.  `lattices`/`storages` document the (D, S)
/// template combinations the backend is registered for ("all" or a
/// space-separated list) — requesting it outside that set throws at
/// make_backend time, it does not degrade to another backend.
struct BackendInfo {
  std::string name;
  std::string summary;
  BackendCaps caps;
  BackendCostHints hints;
  std::string lattices = "all";
  std::string storages = "all";
};

/// The static catalog of built-in backends, in registration order.  This
/// is the single source the per-(D,S) registries, the docs drift check
/// (scripts/check_docs.py) and bench_backends iterate.
const std::vector<BackendInfo>& backend_catalog();

/// Catalog lookup by name; nullptr when unknown.
const BackendInfo* find_backend_info(const std::string& name);

/// Arguments of one two-lattice update: read `src`, write `dst` over
/// `range` (interior coordinates; halos of `src` are already prepared by
/// the caller exactly as for stream_collide_fused).  `periodic` is only
/// consulted by push-style scatters that wrap in-kernel.
template <class D, class S>
struct BackendStepArgs {
  const PopulationFieldT<S>* src = nullptr;
  PopulationFieldT<S>* dst = nullptr;
  const MaskField* mask = nullptr;
  const MaterialTable* mats = nullptr;
  const CollisionConfig* cfg = nullptr;
  Box3 range;
  Periodicity periodic;
};

/// Abstract kernel backend for lattice D and storage S.  Instances are
/// created per solver (or per patch) through make_backend and may hold
/// mutable execution state (the CPE cluster, LDM arenas); they are not
/// shared between solvers.
template <class D, class S>
class KernelBackend {
 public:
  using Field = PopulationFieldT<S>;

  virtual ~KernelBackend() = default;

  /// Catalog entry: name, capability flags, cost hints.
  virtual const BackendInfo& info() const = 0;

  /// One-time setup against the finalized mask: allocate persistent
  /// state and validate capability flags against the actual cell classes
  /// present.  The default rejects Outflow cells when
  /// caps.supportsOutflow is off and accepts everything else.  Called by
  /// the solver at finalizeMask() and again whenever the backend is
  /// swapped in after finalization; must be idempotent.
  virtual void init(const Grid& grid, const MaskField& mask,
                    const MaterialTable& mats) {
    if (info().caps.supportsOutflow) return;
    const Box3 range = grid.interior();
    for (int z = range.lo.z; z < range.hi.z; ++z)
      for (int y = range.lo.y; y < range.hi.y; ++y)
        for (int x = range.lo.x; x < range.hi.x; ++x)
          if (mats[mask(x, y, z)].cls == CellClass::Outflow)
            throw Error("backend '" + info().name +
                        "' does not support Outflow cells (in-place "
                        "streaming has no extrapolation slot)");
  }

  /// The entry points the solvers call, `threads` host lanes each (<= 0
  /// = one per hardware core).  A caps.subRange backend runs as the
  /// team_slab z-slabs of `range` on the calling thread's team
  /// (run_slabs, core/kernels_team.hpp); any other backend gets one hook
  /// call over the whole range.  Every lane count is bitwise equal to
  /// one lane.
  void run(const BackendStepArgs<D, S>& a, int threads) {
    sweep(a.range, threads, [&](const Box3& slab) {
      BackendStepArgs<D, S> s = a;
      s.range = slab;
      step(s);
    });
  }
  void runInPlaceEven(Field& f, const MaskField& mask,
                      const MaterialTable& mats, const CollisionConfig& cfg,
                      const Box3& range, int threads) {
    sweep(range, threads, [&](const Box3& slab) {
      stepInPlaceEven(f, mask, mats, cfg, slab);
    });
  }
  void runInPlaceOdd(Field& f, const MaskField& mask,
                     const MaterialTable& mats, const CollisionConfig& cfg,
                     const Box3& range, int threads) {
    sweep(range, threads, [&](const Box3& slab) {
      stepInPlaceOdd(f, mask, mats, cfg, slab);
    });
  }

 protected:
  /// One two-lattice stream/collide update (see BackendStepArgs).
  /// In-place backends throw — callers must branch on
  /// caps.inPlaceStreaming first.
  virtual void step(const BackendStepArgs<D, S>& a) = 0;

  /// Even in-place phase: sweep `range` of the single buffer, leaving it
  /// in the rotated Esoteric-Pull layout.  The caller wraps periodic
  /// halos before and folds the outward scatter back (reverse wrap /
  /// reverse exchange) after.  Only caps.inPlaceStreaming backends
  /// implement the pair; the defaults throw.
  virtual void stepInPlaceEven(Field&, const MaskField&,
                               const MaterialTable&, const CollisionConfig&,
                               const Box3&) {
    throw Error("backend '" + info().name +
                "' does not stream in place (no even-phase hook)");
  }

  /// Odd in-place phase: purely local rotated-layout sweep (no halo
  /// traffic), restoring the natural layout.
  virtual void stepInPlaceOdd(Field&, const MaskField&, const MaterialTable&,
                              const CollisionConfig&, const Box3&) {
    throw Error("backend '" + info().name +
                "' does not stream in place (no odd-phase hook)");
  }

 private:
  template <class Hook>
  void sweep(const Box3& range, int threads, Hook&& hook) {
    if (info().caps.subRange)
      run_slabs(range, threads, hook);
    else
      hook(range);
  }
};

}  // namespace swlb
