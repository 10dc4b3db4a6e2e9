// Sponge zones (absorbing outflow buffers) and the step profiler.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/solver.hpp"
#include "core/sponge.hpp"
#include "obs/step_profiler.hpp"

namespace swlb {
namespace {

TEST(Sponge, StrengthRampsQuadraticallyTowardTheOuterEdge) {
  SpongeZone zone;
  zone.box = {{10, 0, 0}, {20, 4, 1}};
  zone.axis = 0;
  zone.highSide = true;
  zone.maxStrength = 0.2;
  EXPECT_EQ(sponge_strength(zone, 5, 0, 0), 0.0);   // outside
  EXPECT_EQ(sponge_strength(zone, 10, 0, 0), 0.0);  // inner edge
  EXPECT_NEAR(sponge_strength(zone, 19, 0, 0), 0.2, 1e-12);  // outer edge
  // Monotone growth.
  Real prev = 0;
  for (int x = 10; x < 20; ++x) {
    const Real s = sponge_strength(zone, x, 0, 0);
    EXPECT_GE(s, prev);
    prev = s;
  }
  // Low-side variant ramps the other way.
  zone.highSide = false;
  EXPECT_NEAR(sponge_strength(zone, 10, 0, 0), 0.2, 1e-12);
  EXPECT_EQ(sponge_strength(zone, 19, 0, 0), 0.0);
}

TEST(Sponge, DrivesPopulationsTowardTargetEquilibrium) {
  Grid g(8, 4, 1);
  PopulationField f(g, D2Q9::Q);
  Real feq[D2Q9::Q];
  equilibria<D2Q9>(1.1, {0.08, 0.02, 0}, feq);  // far from the target
  for (int q = 0; q < D2Q9::Q; ++q)
    for (int y = 0; y < 4; ++y)
      for (int x = 0; x < 8; ++x) f(q, x, y, 0) = feq[q];

  SpongeZone zone;
  zone.box = {{4, 0, 0}, {8, 4, 1}};
  zone.maxStrength = 0.5;
  zone.targetRho = 1.0;
  zone.targetU = {0.02, 0, 0};
  for (int it = 0; it < 200; ++it) apply_sponge<D2Q9>(f, zone);

  // Strong-sponge cells converge to the target state...
  Real fi[D2Q9::Q];
  for (int i = 0; i < D2Q9::Q; ++i) fi[i] = f(i, 7, 2, 0);
  Real rho;
  Vec3 mom;
  moments<D2Q9>(fi, rho, mom);
  EXPECT_NEAR(rho, 1.0, 1e-6);
  EXPECT_NEAR(mom.x / rho, 0.02, 1e-6);
  // ... cells outside the zone are untouched.
  EXPECT_EQ(f(1, 2, 2, 0), feq[1]);
}

TEST(Sponge, ReducesOutflowReflectionInAChannel) {
  // A density pulse travels toward the outflow; with a sponge the
  // reflected disturbance re-entering the probe region is weaker.
  auto runWithSponge = [](bool useSponge) {
    const int nx = 64, ny = 4;
    CollisionConfig cfg;
    cfg.omega = 1.6;  // lightly damped: reflections survive without help
    Solver<D2Q9> solver(Grid(nx, ny, 1), cfg, Periodicity{false, true, true});
    const auto outR = solver.materials().addOutflow({-1, 0, 0});
    const auto outL = solver.materials().addOutflow({1, 0, 0});
    solver.paint({{nx - 1, 0, 0}, {nx, ny, 1}}, outR);
    solver.paint({{0, 0, 0}, {1, ny, 1}}, outL);  // both ends open
    solver.finalizeMask();
    solver.initField([&](int x, int, int, Real& rho, Vec3& u) {
      rho = 1.0 + 0.05 * std::exp(-0.05 * (x - 20) * (x - 20));  // pulse
      u = {0, 0, 0};
    });
    SpongeZone zone;
    zone.box = {{48, 0, 0}, {63, ny, 1}};
    zone.maxStrength = 0.3;
    for (int s = 0; s < 140; ++s) {
      solver.step();
      if (useSponge) apply_sponge<D2Q9>(solver.f(), zone);
    }
    // Residual disturbance in the probe region after the pulse should
    // have left the domain.
    Real maxDev = 0;
    for (int x = 8; x < 40; ++x)
      maxDev = std::max(maxDev, std::abs(solver.density(x, 2, 0) - 1.0));
    return maxDev;
  };
  const Real with = runWithSponge(true);
  const Real without = runWithSponge(false);
  EXPECT_LT(with, without);
  EXPECT_LT(with, 0.01);
}

// ---------------------------------------------------------------- profiler

TEST(Profiler, AggregatesTimingStatistics) {
  StepProfiler p(1000.0);
  p.record(0.01);
  p.record(0.03);
  p.record(0.02);
  EXPECT_EQ(p.steps(), 3u);
  EXPECT_NEAR(p.totalSeconds(), 0.06, 1e-12);
  EXPECT_NEAR(p.meanSeconds(), 0.02, 1e-12);
  EXPECT_DOUBLE_EQ(p.minSeconds(), 0.01);
  EXPECT_DOUBLE_EQ(p.maxSeconds(), 0.03);
  // 3000 updates in 0.06 s = 0.05 MLUPS.
  EXPECT_NEAR(p.mlups(), 0.05, 1e-9);
  EXPECT_NEAR(p.gflops(418), 0.05e6 * 418 / 1e9, 1e-9);
}

TEST(Profiler, TimesRealWork) {
  StepProfiler p(100.0);
  p.step([] { std::this_thread::sleep_for(std::chrono::milliseconds(5)); });
  EXPECT_EQ(p.steps(), 1u);
  EXPECT_GE(p.minSeconds(), 0.004);
  p.reset();
  EXPECT_EQ(p.steps(), 0u);
  EXPECT_EQ(p.mlups(), 0.0);
}

TEST(Profiler, RejectsNonPositiveCellCounts) {
  EXPECT_THROW(StepProfiler(0), Error);
  EXPECT_THROW(StepProfiler(-5), Error);
}

}  // namespace
}  // namespace swlb
