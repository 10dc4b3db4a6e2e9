// Physical validation of the solver against analytic solutions:
// Couette, Poiseuille (body-force channel), Taylor-Green vortex decay.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>

#include "core/observables.hpp"
#include "core/solver.hpp"
#include "kernel_conformance.hpp"

namespace swlb {
namespace {

// ---------------------------------------------------------------- Couette

TEST(Couette, LinearProfileUnderMovingLid) {
  // Channel periodic in x (and z collapsed to 1 cell periodic), walls in y:
  // bottom solid, top moving with u_w.  Steady state is linear shear.
  const int nx = 4, ny = 24;
  CollisionConfig cfg;
  cfg.omega = 1.0;
  Solver<D2Q9> solver(Grid(nx, ny, 1), cfg, Periodicity{true, false, true});
  const Real uw = 0.05;
  const auto lid = solver.materials().addMovingWall({uw, 0, 0});
  solver.paint({{0, ny - 1, 0}, {nx, ny, 1}}, lid);
  solver.finalizeMask();
  solver.initUniform(1.0, {0, 0, 0});
  solver.run(8000);

  // Half-way bounce-back: wall plane sits half a cell outside the fluid.
  // Fluid rows are y = 0 .. ny-2 (row ny-1 is the lid cells).
  // u(y) = uw * (y + 0.5) / (ny - 1)
  for (int y = 0; y < ny - 1; ++y) {
    const Real expected = uw * (y + 0.5) / (ny - 1);
    const Real got = solver.velocity(1, y, 0).x;
    EXPECT_NEAR(got, expected, 0.015 * uw) << "row " << y;
  }
}

// -------------------------------------------------------------- Poiseuille

TEST(Poiseuille, ParabolicProfileUnderBodyForce) {
  const int nx = 4, ny = 32;
  const Real nu = 1.0 / 6.0;  // tau = 1
  const Real g = 1e-6;
  CollisionConfig cfg;
  cfg.omega = omega_from_tau(tau_from_viscosity(nu));
  cfg.bodyForce = {g, 0, 0};
  Solver<D2Q9> solver(Grid(nx, ny, 1), cfg, Periodicity{true, false, true});
  solver.finalizeMask();  // default: solid walls top/bottom
  solver.initUniform(1.0, {0, 0, 0});
  solver.run(12000);

  // Walls at y = -0.5 and y = ny - 0.5  =>  H = ny.
  // u(y) = g/(2 nu) (y + 0.5)(H - y - 0.5)
  const Real H = ny;
  Real maxErr = 0, maxU = 0;
  for (int y = 0; y < ny; ++y) {
    const Real yw = y + 0.5;
    const Real expected = g / (2 * nu) * yw * (H - yw);
    const Real got = solver.velocity(2, y, 0).x;
    maxErr = std::max(maxErr, std::abs(got - expected));
    maxU = std::max(maxU, expected);
  }
  EXPECT_LT(maxErr / maxU, 0.01);
}

TEST(Poiseuille, FlowIsTranslationInvariantAlongChannel) {
  const int nx = 6, ny = 16;
  CollisionConfig cfg;
  cfg.omega = 1.0;
  cfg.bodyForce = {5e-7, 0, 0};
  Solver<D2Q9> solver(Grid(nx, ny, 1), cfg, Periodicity{true, false, true});
  solver.finalizeMask();
  solver.initUniform(1.0, {0, 0, 0});
  solver.run(4000);
  for (int y = 0; y < ny; ++y) {
    const Real ref = solver.velocity(0, y, 0).x;
    for (int x = 1; x < nx; ++x)
      EXPECT_NEAR(solver.velocity(x, y, 0).x, ref, 1e-12);
  }
}

TEST(Poiseuille3D, ParabolicProfileWithD3Q19) {
  const int nx = 4, ny = 24, nz = 4;
  const Real nu = 1.0 / 6.0;
  const Real g = 1e-6;
  CollisionConfig cfg;
  cfg.omega = omega_from_tau(tau_from_viscosity(nu));
  cfg.bodyForce = {g, 0, 0};
  // Periodic in x and z, walls in y: a planar channel.
  Solver<D3Q19> solver(Grid(nx, ny, nz), cfg, Periodicity{true, false, true});
  solver.finalizeMask();
  solver.initUniform(1.0, {0, 0, 0});
  solver.run(8000);

  const Real H = ny;
  Real maxErr = 0, maxU = 0;
  for (int y = 0; y < ny; ++y) {
    const Real yw = y + 0.5;
    const Real expected = g / (2 * nu) * yw * (H - yw);
    const Real got = solver.velocity(1, y, 1).x;
    maxErr = std::max(maxErr, std::abs(got - expected));
    maxU = std::max(maxU, expected);
  }
  EXPECT_LT(maxErr / maxU, 0.01);
}

// ------------------------------------------------------------ Taylor-Green

struct TgvParams {
  const char* backend;
  const char* label;
};

class TaylorGreenTest : public ::testing::TestWithParam<TgvParams> {};

TEST_P(TaylorGreenTest, ViscousDecayMatchesAnalytic) {
  // 2-D Taylor-Green vortex on a fully periodic box decays as
  // u(t) = u0 exp(-2 nu k^2 t); every kernel variant must reproduce it.
  const int n = 32;
  const Real nu = 0.02;
  const Real u0 = 0.02;
  const Real k = 2 * std::numbers::pi / n;

  CollisionConfig cfg;
  cfg.omega = omega_from_tau(tau_from_viscosity(nu));
  const Periodicity per{true, true, true};
  Solver<D2Q9> solver(Grid(n, n, 1), cfg, per);
  solver.finalizeMask();
  solver.initField([&](int x, int y, int, Real& rho, Vec3& u) {
    u.x = -u0 * std::cos(k * (x + 0.5)) * std::sin(k * (y + 0.5));
    u.y = u0 * std::sin(k * (x + 0.5)) * std::cos(k * (y + 0.5));
    u.z = 0;
    rho = 1.0 - u0 * u0 * 3.0 / 4.0 *
                    (std::cos(2 * k * (x + 0.5)) + std::cos(2 * k * (y + 0.5)));
  });

  const int steps = 400;
  const Real decay = std::exp(-2 * nu * k * k * steps);
  conformance::withKernel(GetParam().backend, std::move(solver), per,
                          [&](auto& sim) {
    sim.run(steps);
    Real maxErr = 0;
    for (int y = 0; y < n; ++y)
      for (int x = 0; x < n; ++x) {
        const Real ex = -u0 * decay * std::cos(k * (x + 0.5)) * std::sin(k * (y + 0.5));
        const Real ey = u0 * decay * std::sin(k * (x + 0.5)) * std::cos(k * (y + 0.5));
        const Vec3 got = sim.velocity(x, y, 0);
        maxErr = std::max({maxErr, std::abs(got.x - ex), std::abs(got.y - ey)});
      }
    EXPECT_LT(maxErr / u0, 0.02) << GetParam().label;
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelVariants, TaylorGreenTest,
    ::testing::Values(TgvParams{"fused", "fused"},
                      TgvParams{"generic", "generic"},
                      TgvParams{"twostep", "two-step"},
                      TgvParams{"push", "push"}),
    [](const ::testing::TestParamInfo<TgvParams>& info) {
      return std::string(info.param.label) == "two-step" ? "TwoStep"
             : info.param.label == std::string("fused")  ? "Fused"
             : info.param.label == std::string("push")   ? "Push"
                                                          : "Generic";
    });

TEST(TaylorGreen3D, DecayRateWithD3Q19) {
  const int n = 16;
  const Real nu = 0.05;
  const Real u0 = 0.01;
  const Real k = 2 * std::numbers::pi / n;

  CollisionConfig cfg;
  cfg.omega = omega_from_tau(tau_from_viscosity(nu));
  Solver<D3Q19> solver(Grid(n, n, 1), cfg, Periodicity{true, true, true});
  solver.finalizeMask();
  solver.initField([&](int x, int y, int, Real& rho, Vec3& u) {
    u.x = -u0 * std::cos(k * (x + 0.5)) * std::sin(k * (y + 0.5));
    u.y = u0 * std::sin(k * (x + 0.5)) * std::cos(k * (y + 0.5));
    rho = 1.0;
  });

  // Measure the decay rate from total kinetic energy: E ~ exp(-4 nu k^2 t).
  auto energy = [&] {
    ScalarField rho(solver.grid());
    VectorField u(solver.grid());
    solver.computeMacroscopic(rho, u);
    return kinetic_energy(rho, u, solver.mask(), solver.materials());
  };
  const Real e0 = energy();
  const int steps = 200;
  solver.run(steps);
  const Real e1 = energy();
  const Real measured = -std::log(e1 / e0) / steps;
  const Real expected = 4 * nu * k * k;
  EXPECT_NEAR(measured, expected, 0.05 * expected);
}

}  // namespace
}  // namespace swlb
