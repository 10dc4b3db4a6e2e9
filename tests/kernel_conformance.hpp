// Kernel-conformance harness (DESIGN.md §11): the contract every
// registered backend and every ablation kernel must satisfy against the
// production fused pull kernel, under every collision operator
// (collisionOperators()).
//
//   * f64 identity storage: bit-identical populations after every step.
//   * Same reduced storage (f32/f16): still bit-identical (the variants
//     run the same Real expression trees between decode and encode).
//   * Reduced vs f64: agreement within a quantization bound that grows
//     linearly in steps (StorageTraits<S>::kEpsilon per encode).
//
// Registered backends run on a Solver; the ablation kernels (generic
// pull, two-step, push) are plain functions and run on an AblationRun.
// Comparisons go through the canonical population() reader, so in-place
// variants whose raw layout rotates (Esoteric) are compared in natural
// order at every phase.  Solid/MovingWall cells are excluded: their
// storage is a scratch mailbox under in-place streaming.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/precision.hpp"
#include "core/solver.hpp"

namespace swlb::conformance {

/// One mask/boundary pattern the harness drives every variant through.
/// `paint` works on the raw mask/material table so it is independent of
/// the solver's storage type.
struct Scenario {
  std::string name;
  Int3 extent{7, 5, 3};  ///< odd, non-vector-width extents by default
  Periodicity periodic{true, true, true};
  std::function<void(MaskField&, MaterialTable&, const Grid&)> paint;
  bool hasOutflow = false;  ///< in-place backends reject Outflow; skip there
  CollisionConfig collision{.omega = 1.7};  ///< plain BGK unless overridden
};

/// One point of the collision-operator axis.
struct Operator {
  std::string name;
  CollisionConfig cfg;
};

/// Every collision policy of core/collision.hpp: BGK with and without
/// Guo forcing and Smagorinsky LES, TRT, and MRT (D3Q19 only).
inline std::vector<Operator> collisionOperators() {
  const CollisionConfig bgk{.omega = 1.7};
  CollisionConfig guo = bgk;
  guo.bodyForce = {2e-5, -1e-5, 5e-6};
  CollisionConfig les = bgk;
  les.les = true;
  les.smagorinskyCs = 0.17;
  CollisionConfig guoLes = guo;
  guoLes.les = true;
  guoLes.smagorinskyCs = 0.17;
  CollisionConfig trt = bgk;
  trt.op = CollisionOp::TRT;
  CollisionConfig mrt = bgk;
  mrt.op = CollisionOp::MRT;
  return {{"bgk", bgk},           {"bgk_guo", guo}, {"bgk_les", les},
          {"bgk_guo_les", guoLes}, {"trt", trt},     {"mrt", mrt}};
}

/// `sc` under collision operator `op`.
inline Scenario withOperator(Scenario sc, const Operator& op) {
  sc.name += "/" + op.name;
  sc.collision = op.cfg;
  return sc;
}

/// Deterministic smooth non-equilibrium-free init (same field for every
/// solver under test; no RNG so failures reproduce exactly).
template <class D, class S>
void initSmooth(Solver<D, S>& s) {
  s.initField([](int x, int y, int z, Real& rho, Vec3& u) {
    rho = 1.0 + 0.03 * std::sin(0.7 * x + 0.3) * std::cos(0.5 * y + 0.1) *
                    std::cos(0.4 * z + 0.2);
    u = {0.02 * std::sin(0.5 * x + 0.1), 0.015 * std::cos(0.6 * y + 0.2),
         0.01 * std::sin(0.3 * z + 0.4)};
  });
}

template <class D, class S>
Solver<D, S> makeSolver(const Scenario& sc) {
  const Grid g(sc.extent.x, sc.extent.y, sc.extent.z);
  Solver<D, S> solver(g, sc.collision, sc.periodic);
  if (sc.paint) sc.paint(solver.mask(), solver.materials(), g);
  return solver;
}

/// The solver of `sc`, finalized and initialized by initSmooth.
template <class D, class S>
Solver<D, S> seededSolver(const Scenario& sc) {
  Solver<D, S> s = makeSolver<D, S>(sc);
  s.finalizeMask();
  initSmooth(s);
  return s;
}

/// One ablation kernel of core/kernels.hpp (kAblationKernels) stepping
/// its own A-B pair through ablation_step, with Solver's readers for the
/// checks.
template <class D, class S>
class AblationRun {
 public:
  using Field = PopulationFieldT<S>;

  /// `seed` is finalized and initialized; its populations fill both
  /// buffers (as Solver::initField does), and its mask, materials and
  /// collision config drive every update.
  AblationRun(std::string kernel, Solver<D, S> seed, const Periodicity& per)
      : kernel_(std::move(kernel)),
        seed_(std::move(seed)),
        per_(per),
        f_{seed_.f(), seed_.f()} {}

  void step() {
    ablation_step<D>(kernel_, f_[cur_], f_[1 - cur_], mask(), materials(),
                     seed_.collision(), per_);
    cur_ = 1 - cur_;
  }
  void run(std::uint64_t steps) {
    for (std::uint64_t s = 0; s < steps; ++s) step();
  }

  const Grid& grid() const { return seed_.grid(); }
  const MaskField& mask() const { return seed_.mask(); }
  const MaterialTable& materials() const { return seed_.materials(); }
  Real population(int i, int x, int y, int z) const {
    return f_[cur_](i, x, y, z);
  }
  Real totalMass() const { return total_mass<D>(f_[cur_], mask(), materials()); }
  Vec3 totalMomentum() const {
    return total_momentum<D>(f_[cur_], mask(), materials());
  }
  Vec3 velocity(int x, int y, int z) const {
    Real rho = 0;
    Vec3 u{};
    cell_macroscopic<D>(f_[cur_], x, y, z, seed_.collision(), rho, u);
    return u;
  }

 private:
  std::string kernel_;
  Solver<D, S> seed_;
  Periodicity per_;
  Field f_[2];
  int cur_ = 0;
};

/// Call `fn` with the simulation named `name`, seeded from `seed`
/// (finalized and initialized): `seed` itself on the registered backend
/// `name`, or an AblationRun of the ablation kernel `name`.
template <class D, class S, class Fn>
void withKernel(const std::string& name, Solver<D, S> seed,
                const Periodicity& per, Fn&& fn) {
  if (BackendRegistry<D, S>::instance().has(name)) {
    seed.setBackend(name);
    fn(seed);
  } else {
    AblationRun<D, S> run(name, std::move(seed), per);
    fn(run);
  }
}

/// Compare canonical populations over the interior (excluding wall-class
/// cells) of two simulations with Solver's readers.  tol == 0 demands
/// bitwise equality; otherwise absolute difference <= tol per population.
/// Fails once with the worst offender so a mismatch doesn't produce
/// thousands of assertions.
template <class D, class A, class B>
void expectEquivalent(const A& a, const B& b, double tol,
                      const std::string& what) {
  const Grid& g = a.grid();
  const MaskField& mask = a.mask();
  const MaterialTable& mats = a.materials();
  double worst = 0;
  int wx = 0, wy = 0, wz = 0, wi = 0;
  long long bad = 0;
  for (int z = 0; z < g.nz; ++z)
    for (int y = 0; y < g.ny; ++y)
      for (int x = 0; x < g.nx; ++x) {
        const CellClass cls = mats[mask(x, y, z)].cls;
        if (cls == CellClass::Solid || cls == CellClass::MovingWall) continue;
        for (int i = 0; i < D::Q; ++i) {
          const Real va = a.population(i, x, y, z);
          const Real vb = b.population(i, x, y, z);
          const double diff = std::abs(static_cast<double>(va - vb));
          const bool miss = tol == 0 ? va != vb : diff > tol;
          if (miss) {
            ++bad;
            if (diff >= worst) {
              worst = diff;
              wx = x; wy = y; wz = z; wi = i;
            }
          }
        }
      }
  EXPECT_EQ(bad, 0) << what << ": " << bad << " populations differ, worst |d|="
                    << worst << " at i=" << wi << " (" << wx << "," << wy
                    << "," << wz << "), tol=" << tol;
}

/// Drive backend or ablation kernel `name` in lockstep with the fused
/// reference for `steps` steps of the same scenario/init, comparing
/// canonical populations after every step (so odd/rotated phases of
/// in-place backends are covered too).  SREF/SSUT may differ to probe
/// reduced-precision quantization bounds.
template <class D, class SREF, class SSUT>
void runLockstep(const Scenario& sc, const std::string& name, int steps,
                 double tol) {
  SCOPED_TRACE(sc.name + " backend=" + name);
  Solver<D, SREF> ref = seededSolver<D, SREF>(sc);
  withKernel(name, seededSolver<D, SSUT>(sc), sc.periodic, [&](auto& sut) {
    for (int s = 0; s < steps; ++s) {
      ref.step();
      sut.step();
      expectEquivalent<D>(ref, sut, tol,
                          sc.name + "/" + name + " step " +
                              std::to_string(s + 1));
      if (::testing::Test::HasFailure()) return;  // first bad step suffices
    }
  });
}

/// Closed-box mass conservation: total fluid mass after `steps` equals the
/// initial mass to within accumulated f64 rounding.
template <class D, class S>
void expectMassConserved(const Scenario& sc, const std::string& name,
                         int steps) {
  SCOPED_TRACE(sc.name + " mass backend=" + name);
  withKernel(name, seededSolver<D, S>(sc), sc.periodic, [&](auto& s) {
    const Real m0 = s.totalMass();
    for (int i = 0; i < steps; ++i) s.step();
    EXPECT_NEAR(s.totalMass() / m0, 1.0, 1e-12);
  });
}

/// Registry-driven conformance: every backend registered for (D, S) runs
/// `sc` bitwise in lockstep with fused; in-place backends skip Outflow
/// scenarios.  A backend added to the registry is covered here with no
/// test changes.
template <class D, class S>
void runRegisteredBackends(const Scenario& sc, int steps) {
  for (const std::string& name : backend_names<D, S>()) {
    if (name == "fused") continue;  // the reference itself
    if (sc.hasOutflow && find_backend_info(name)->caps.inPlaceStreaming)
      continue;
    runLockstep<D, S, S>(sc, name, steps, 0);
  }
}

}  // namespace swlb::conformance
