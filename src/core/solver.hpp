// Single-block LBM solver: owns the A-B population fields, the material
// mask, and the time loop (paper §IV-A: pull scheme, SoA, A-B pattern).
// The stream/collide execution itself is delegated to a KernelBackend
// (core/backend.hpp, DESIGN.md §14): the solver schedules wraps, parity
// and observables and sets the host-thread count; the backend runs the
// update.
//
// Every DistributedSolver block is a Solver too, composed from its step
// pieces around the ghost exchange, so the in-place phase logic and the
// rotated-layout readers live only here.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/backends.hpp"
#include "core/kernels.hpp"
#include "core/macroscopic.hpp"
#include "core/observables.hpp"
#include "obs/context.hpp"

namespace swlb {

/// `S` selects the population *storage* precision (double / float / f16);
/// all collision arithmetic stays in Real.  Defaults to lossless double.
template <class D, class S = Real>
class Solver {
 public:
  using Field = PopulationFieldT<S>;

  Solver(const Grid& grid, const CollisionConfig& collision,
         const Periodicity& periodic = {})
      : grid_(grid),
        cfg_(collision),
        periodic_(periodic),
        f_{Field(grid, D::Q), Field(grid, D::Q)},
        mask_(grid, MaterialTable::kFluid),
        backend_(make_backend<D, S>("fused")) {
    f_[0].setShift(D::w);
    f_[1].setShift(D::w);
    obs::gaugeSet("solver.population_bytes",
                  static_cast<double>(populationBytes()));
  }

  const Grid& grid() const { return grid_; }
  CollisionConfig& collision() { return cfg_; }
  const CollisionConfig& collision() const { return cfg_; }
  MaterialTable& materials() { return mats_; }
  const MaterialTable& materials() const { return mats_; }
  MaskField& mask() { return mask_; }
  const MaskField& mask() const { return mask_; }

  /// Select the stream/collide backend by registry name.  Switching to
  /// an in-place backend releases the second A-B buffer (the point of
  /// the scheme); switching away reallocates it.  Either direction
  /// requires the buffer in natural layout, i.e. an even phase.  Unknown
  /// names and capability conflicts (e.g. an in-place backend over an
  /// Outflow mask) throw — no silent fallback.
  void setBackend(const std::string& name) {
    auto next = make_backend<D, S>(name);
    const bool wasInPlace = backend_->info().caps.inPlaceStreaming;
    const bool isInPlace = next->info().caps.inPlaceStreaming;
    if (wasInPlace != isInPlace) {
      SWLB_ASSERT(parity_ == 0);
      if (isInPlace) {
        f_[1] = Field();
      } else {
        f_[1] = Field(grid_, D::Q);
        f_[1].setShift(D::w);
      }
    }
    backend_ = std::move(next);
    if (maskFinal_) backend_->init(grid_, mask_, mats_);
    obs::gaugeSet("solver.population_bytes",
                  static_cast<double>(populationBytes()));
  }
  const KernelBackend<D, S>& backend() const { return *backend_; }
  const std::string& backendName() const { return backend_->info().name; }

  /// Bytes held in population storage: two lattices normally, one under
  /// an in-place single-buffer backend (the gauge `solver.population_
  /// bytes` tracks this — not the historical two-lattice figure).
  std::size_t populationBytes() const {
    return f_[0].bytes() + f_[1].bytes();
  }
  /// Host threads every caps.subRange backend's step is split across
  /// (z-slabs on one persistent team, core/kernels_team.hpp; results are
  /// bit-identical for any thread count).  <= 0 selects one thread per
  /// hardware core.
  void setHostThreads(int n) { hostThreads_ = n; }
  int hostThreads() const { return hostThreads_; }

  /// Mark every interior cell inside `box` with material `id`.
  void paint(const Box3& box, std::uint8_t id) {
    const Box3 b = intersect(box, grid_.interior());
    for (int z = b.lo.z; z < b.hi.z; ++z)
      for (int y = b.lo.y; y < b.hi.y; ++y)
        for (int x = b.lo.x; x < b.hi.x; ++x) mask_(x, y, z) = id;
  }

  /// Finish mask setup: non-periodic halo becomes solid wall, periodic
  /// halo wraps.  Must be called after all paint()/mask edits and before
  /// the first step.  Runs the backend's capability validation (e.g.
  /// in-place backends reject Outflow cells here).
  void finalizeMask() {
    fill_halo_mask(mask_, periodic_, MaterialTable::kSolid);
    maskFinal_ = true;
    backend_->init(grid_, mask_, mats_);
  }

  /// Initialize populations to equilibrium at constant (rho, u).
  void initUniform(Real rho, const Vec3& u) {
    initField([&](int, int, int, Real& r, Vec3& v) {
      r = rho;
      v = u;
    });
  }

  /// Initialize populations to equilibrium from a per-cell (rho, u) field.
  void initField(
      const std::function<void(int, int, int, Real&, Vec3&)>& fn) {
    if (!maskFinal_) finalizeMask();
    Real feq[D::Q];
    for (int z = -grid_.halo; z < grid_.nz + grid_.halo; ++z)
      for (int y = -grid_.halo; y < grid_.ny + grid_.halo; ++y)
        for (int x = -grid_.halo; x < grid_.nx + grid_.halo; ++x) {
          Real rho = 1;
          Vec3 u{0, 0, 0};
          fn(x, y, z, rho, u);
          equilibria<D>(rho, u, feq);
          for (int i = 0; i < D::Q; ++i) {
            f_[0](i, x, y, z) = feq[i];
            if (f_[1].size()) f_[1](i, x, y, z) = feq[i];
          }
        }
  }

  /// Advance one time step: wrap periodic halos, backend update, A-B
  /// swap.  Under an in-place backend, parity_ is the phase instead of
  /// the A-B index: 0 = natural layout, 1 = rotated (post-even) layout.
  /// The even in-place phase also folds its outward scatter back after
  /// the sweep; the odd one is purely local (DESIGN.md §11).
  void step() {
    obs::TraceScope stepScope("step");
    const bool oddInPlace = inPlace() && parity_ == 1;
    if (!oddInPlace) {
      obs::TraceScope wrapScope("periodic_wrap");
      wrapHalo();
    }
    {
      obs::TraceScope kernelScope("compute.kernel");
      sweep(grid_.interior());
    }
    if (inPlace() && !oddInPlace) {
      obs::TraceScope wrapScope("periodic_wrap");
      unwrapHalo();
    }
    advance();
  }

  // The pieces of step(), in call order; a distributed schedule adds its
  // forward exchange before the sweeps (which tile the interior) and, on
  // an even in-place phase, its reverse exchange before unwrapHalo.

  /// Copy interior faces into the periodic halo of the current buffer.
  void wrapHalo() { apply_periodic(f(), periodic_); }

  /// Stream/collide `range` (interior coordinates) of the current buffer:
  /// into the other A-B buffer, or in place through the even or odd hook
  /// the phase selects.  The only place that builds BackendStepArgs.
  void sweep(const Box3& range) {
    SWLB_ASSERT(maskFinal_);
    if (inPlace()) {
      if (parity_ == 0)
        backend_->runInPlaceEven(f_[0], mask_, mats_, cfg_, range,
                                 hostThreads_);
      else
        backend_->runInPlaceOdd(f_[0], mask_, mats_, cfg_, range,
                                hostThreads_);
      return;
    }
    backend_->run(BackendStepArgs<D, S>{&f_[parity_], &f_[1 - parity_], &mask_,
                                        &mats_, &cfg_, range},
                  hostThreads_);
  }

  /// After an even in-place sweep: fold the outward scatter that landed in
  /// the periodic halo back onto the opposite interior edge.
  void unwrapHalo() { apply_periodic_reverse<D>(f_[0], periodic_); }

  /// Finish the step: flip the A-B parity (in-place phase) and count it.
  void advance() {
    parity_ = 1 - parity_;
    ++steps_;
  }

  void run(std::uint64_t nSteps) {
    for (std::uint64_t s = 0; s < nSteps; ++s) step();
  }

  /// Run nSteps and return million lattice-cell updates per second.
  double runMeasured(std::uint64_t nSteps) {
    const auto t0 = std::chrono::steady_clock::now();
    run(nSteps);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    const double lups =
        static_cast<double>(grid_.interiorVolume()) * nSteps / sec;
    return lups / 1e6;
  }

  std::uint64_t stepsDone() const { return steps_; }

  /// Current (most recently written) population field.  Under an
  /// in-place backend this is always the single buffer; after an odd
  /// number of steps it is in the rotated layout — use population()/the
  /// macroscopic accessors, which decode it, rather than indexing raw.
  const Field& f() const { return inPlace() ? f_[0] : f_[parity_]; }
  Field& f() { return inPlace() ? f_[0] : f_[parity_]; }
  int parity() const { return parity_; }
  /// True when the backend streams in place in one buffer (Esoteric-Pull).
  bool inPlace() const { return backend_->info().caps.inPlaceStreaming; }
  /// True once finalizeMask() has run.
  bool maskFinalized() const { return maskFinal_; }
  /// Restore step counter and A-B parity (checkpoint restart).  In-place
  /// checkpoints must be cut at an even phase (natural layout).  Throws,
  /// leaving the solver as it was, on any other parity.
  void restoreState(std::uint64_t steps, int parity) {
    if (parity != 0 && (parity != 1 || inPlace()))
      throw Error("restore: parity " + std::to_string(parity) +
                  " is not one backend '" + backendName() +
                  "' restores (0 or 1; 0 only when streaming in place)");
    steps_ = steps;
    parity_ = parity;
  }

  /// Canonical post-stream population f_i(x) regardless of backend and
  /// phase: after an in-place even step, f_i*(x) lives at slot opp(i) of
  /// x + c_i (the Esoteric-Pull rotated-layout contract).
  Real population(int i, int x, int y, int z) const {
    return decoded([&](const auto& f) { return f(i, x, y, z); });
  }

  Real density(int x, int y, int z) const { return moments(x, y, z).first; }
  Vec3 velocity(int x, int y, int z) const { return moments(x, y, z).second; }
  void computeMacroscopic(ScalarField& rho, VectorField& u) const {
    decoded([&](const auto& f) {
      compute_macroscopic<D>(f, mask_, mats_, cfg_, rho, u);
    });
  }

  Real totalMass() const {
    return decoded(
        [&](const auto& f) { return total_mass<D>(f, mask_, mats_); });
  }
  Vec3 totalMomentum() const {
    return decoded(
        [&](const auto& f) { return total_momentum<D>(f, mask_, mats_); });
  }
  /// Momentum-exchange force the fluid exerts on cells of material `id`
  /// (core/observables.hpp).
  Vec3 force(std::uint8_t id) const {
    return decoded([&](const auto& f) {
      return momentum_exchange_force<D>(f, mask_, mats_, id);
    });
  }

  /// NaN/Inf guard over the interior of the current population buffer.
  /// Ghost layers are excluded: they are rewritten by the wrap or halo
  /// exchange before every read, but a stale NaN can linger there across
  /// a rollback (streaming never writes ghosts) and must not re-trip the
  /// guard after recovery.
  bool populationsFinite() const {
    const Field& field = f();
    for (int q = 0; q < D::Q; ++q)
      for (int z = 0; z < grid_.nz; ++z)
        for (int y = 0; y < grid_.ny; ++y)
          for (int x = 0; x < grid_.nx; ++x)
            if (!std::isfinite(field(q, x, y, z))) return false;
    return true;
  }

 private:
  /// Call `fn` with the populations in canonical layout: the current
  /// buffer, or — when the single in-place buffer is in the rotated
  /// (post-even) layout — that buffer decoded through EsotericPhase1View.
  template <class Fn>
  auto decoded(Fn&& fn) const {
    if (inPlace() && parity_ == 1) return fn(EsotericPhase1View<D, S>(f_[0]));
    return fn(f());
  }

  /// (density, velocity) of one cell (core/macroscopic.hpp).
  std::pair<Real, Vec3> moments(int x, int y, int z) const {
    std::pair<Real, Vec3> m{0, {}};
    decoded([&](const auto& f) {
      cell_macroscopic<D>(f, x, y, z, cfg_, m.first, m.second);
    });
    return m;
  }

  Grid grid_;
  CollisionConfig cfg_;
  Periodicity periodic_;
  Field f_[2];
  MaskField mask_;
  MaterialTable mats_;
  std::unique_ptr<KernelBackend<D, S>> backend_;
  int hostThreads_ = 1;
  int parity_ = 0;
  std::uint64_t steps_ = 0;
  bool maskFinal_ = false;
};

}  // namespace swlb
