// Kernel-backend concept (DESIGN.md §14): the one interface every
// stream/collide execution strategy implements, so Solver — the block
// engine DistributedSolver also runs its blocks on —
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
//     same storage type.
//   * In-place backends (caps.inPlaceStreaming) implement the
//     stepInPlaceEven/Odd pair instead; step() throws.  The in-place
//     phase contract IS the Esoteric-Pull rotated layout (DESIGN.md §11):
//     after an even sweep, f_i*(x) lives at slot opp(i) of x + c_i, and
//     Solver's readers decode through EsotericPhase1View.
//   * A caps.subRange backend's step hooks run concurrently on disjoint
//     z-slabs of one call's range; the others are called once from the
//     solver's step thread.  Calls never overlap each other.
//
// Units: `threads` is a host-thread count where <= 0 means "one per
// hardware core".
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
  /// population memory, no Outflow cells (init() rejects them: the
  /// extrapolating copy would race the neighbour's own update), the
  /// Sequential halo schedule with its reverse exchange, and no mixing
  /// with two-lattice blocks in one DistributedSolver.
  bool inPlaceStreaming = false;
  /// step() over disjoint z-slabs of `range`, run concurrently, equals
  /// one step() over `range`.  The executor slices such backends across
  /// the solver's host threads, and DistributedSolver's overlap schedule
  /// relies on it for its inner/shell split.  Off for whole-block
  /// backends (swcpe: DistributedSolver rejects the Overlap mode).
  bool subRange = true;
};

/// Registry/docs entry for one backend: identity, one-line summary, and
/// the flags above.
struct BackendInfo {
  std::string name;
  std::string summary;
  BackendCaps caps;
};

/// The static catalog of built-in backends, in registration order.  This
/// is the single source the per-(D,S) registries, the docs drift check
/// (scripts/check_docs.py) and bench_kernels iterate.
const std::vector<BackendInfo>& backend_catalog();

/// Catalog lookup by name; nullptr when unknown.
const BackendInfo* find_backend_info(const std::string& name);

/// Arguments of one two-lattice update: read `src`, write `dst` over
/// `range` (interior coordinates; halos of `src` are already prepared by
/// the caller exactly as for stream_collide_fused).
template <class D, class S>
struct BackendStepArgs {
  const PopulationFieldT<S>* src = nullptr;
  PopulationFieldT<S>* dst = nullptr;
  const MaskField* mask = nullptr;
  const MaterialTable* mats = nullptr;
  const CollisionConfig* cfg = nullptr;
  Box3 range;
};

/// Abstract kernel backend for lattice D and storage S.  Instances are
/// created per solver (or per patch) through make_backend and may hold
/// mutable execution state (the CPE cluster, LDM arenas); they are not
/// shared between solvers.
template <class D, class S>
class KernelBackend {
 public:
  using Field = PopulationFieldT<S>;

  /// `name` must have a catalog row (backend_catalog()).
  explicit KernelBackend(const char* name)
      : info_(*find_backend_info(name)) {}
  virtual ~KernelBackend() = default;

  /// Catalog entry: name, summary, capability flags.
  const BackendInfo& info() const { return info_; }

  /// One-time setup against the finalized mask: allocate persistent
  /// state and validate capability flags against the actual cell classes
  /// present.  The default rejects Outflow cells under
  /// caps.inPlaceStreaming and accepts everything else.  Called by
  /// the solver at finalizeMask() and again whenever the backend is
  /// swapped in after finalization; must be idempotent.
  virtual void init(const Grid& grid, const MaskField& mask,
                    const MaterialTable& mats) {
    if (!info().caps.inPlaceStreaming) return;
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
  /// In-place backends keep this default, which throws — callers must
  /// branch on caps.inPlaceStreaming first.
  virtual void step(const BackendStepArgs<D, S>&) {
    throw Error("backend '" + info().name +
                "' streams in place (no two-lattice step hook)");
  }

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

  const BackendInfo& info_;
};

}  // namespace swlb
