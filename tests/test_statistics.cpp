// Running flow statistics and the checkpoint rotation controller.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "core/statistics.hpp"
#include "io/checkpoint_controller.hpp"

namespace swlb {
namespace {

namespace fs = std::filesystem;

TEST(FlowStatisticsTest, MeanOfConstantSignalIsExact) {
  Grid g(4, 4, 1);
  FlowStatistics stats(g);
  ScalarField rho(g, 1.1);
  VectorField u(g);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) u.set(x, y, 0, {0.3, -0.2, 0.1});
  for (int s = 0; s < 7; ++s) stats.accumulate(rho, u);
  EXPECT_EQ(stats.samples(), 7u);
  EXPECT_NEAR(stats.meanVelocity(2, 2, 0).x, 0.3, 1e-14);
  EXPECT_NEAR(stats.meanVelocity(2, 2, 0).y, -0.2, 1e-14);
  EXPECT_NEAR(stats.meanDensity(1, 1, 0), 1.1, 1e-14);
  // No fluctuations: every Reynolds stress vanishes.
  for (int a = 0; a < 3; ++a)
    for (int b = a; b < 3; ++b)
      EXPECT_NEAR(stats.reynoldsStress(a, b, 2, 2, 0), 0.0, 1e-16);
}

TEST(FlowStatisticsTest, VarianceOfAlternatingSignal) {
  // u_x alternates +a/-a: mean 0, <u'u'> = a^2 (population variance).
  Grid g(2, 2, 1);
  FlowStatistics stats(g);
  ScalarField rho(g, 1.0);
  VectorField u(g);
  const Real a = 0.05;
  for (int s = 0; s < 1000; ++s) {
    const Real v = (s % 2 == 0) ? a : -a;
    for (int y = 0; y < 2; ++y)
      for (int x = 0; x < 2; ++x) u.set(x, y, 0, {v, 0, 0});
    stats.accumulate(rho, u);
  }
  EXPECT_NEAR(stats.meanVelocity(0, 0, 0).x, 0.0, 1e-14);
  EXPECT_NEAR(stats.reynoldsStress(0, 0, 0, 0, 0), a * a, 1e-12);
  EXPECT_NEAR(stats.turbulentKineticEnergy(0, 0, 0), 0.5 * a * a, 1e-12);
}

TEST(FlowStatisticsTest, CrossCorrelationSignAndSymmetry) {
  // u' and v' perfectly correlated: <u'v'> = +a*b; anti-correlated: -a*b.
  Grid g(1, 1, 1);
  FlowStatistics stats(g);
  ScalarField rho(g, 1.0);
  VectorField u(g);
  const Real a = 0.04, b = 0.02;
  for (int s = 0; s < 100; ++s) {
    const Real sgn = (s % 2 == 0) ? 1.0 : -1.0;
    u.set(0, 0, 0, {a * sgn, b * sgn, 0});
    stats.accumulate(rho, u);
  }
  EXPECT_NEAR(stats.reynoldsStress(0, 1, 0, 0, 0), a * b, 1e-12);
  EXPECT_NEAR(stats.reynoldsStress(1, 0, 0, 0, 0),
              stats.reynoldsStress(0, 1, 0, 0, 0), 1e-16);
  EXPECT_THROW(stats.reynoldsStress(0, 3, 0, 0, 0), Error);
}

TEST(FlowStatisticsTest, SinusoidKnownMoments) {
  // u = U0 + A sin(wt): mean -> U0, variance -> A^2/2 over whole periods.
  Grid g(1, 1, 1);
  FlowStatistics stats(g);
  ScalarField rho(g, 1.0);
  VectorField u(g);
  const Real U0 = 0.1, A = 0.03;
  const int period = 64, cycles = 50;
  for (int s = 0; s < period * cycles; ++s) {
    u.set(0, 0, 0, {U0 + A * std::sin(2 * std::numbers::pi_v<Real> * s / period), 0, 0});
    stats.accumulate(rho, u);
  }
  EXPECT_NEAR(stats.meanVelocity(0, 0, 0).x, U0, 1e-10);
  EXPECT_NEAR(stats.reynoldsStress(0, 0, 0, 0, 0), A * A / 2, 1e-6);
}

TEST(FlowStatisticsTest, ResetClearsEverything) {
  Grid g(2, 2, 1);
  FlowStatistics stats(g);
  ScalarField rho(g, 1.0);
  VectorField u(g);
  u.set(0, 0, 0, {0.5, 0, 0});
  stats.accumulate(rho, u);
  stats.reset();
  EXPECT_EQ(stats.samples(), 0u);
  EXPECT_EQ(stats.meanVelocity(0, 0, 0).x, 0.0);
}

TEST(FlowStatisticsTest, SteadyChannelHasVanishingFluctuations) {
  // Integration: a converged Poiseuille flow sampled over time shows
  // mean == instantaneous and ~zero Reynolds stresses.
  const int nx = 4, ny = 16;
  CollisionConfig cfg;
  cfg.omega = 1.0;
  cfg.bodyForce = {1e-6, 0, 0};
  Solver<D2Q9> solver(Grid(nx, ny, 1), cfg, Periodicity{true, false, true});
  solver.finalizeMask();
  solver.initUniform(1.0, {0, 0, 0});
  solver.run(6000);  // converge

  FlowStatistics stats(solver.grid());
  ScalarField rho(solver.grid());
  VectorField u(solver.grid());
  for (int s = 0; s < 50; ++s) {
    solver.run(10);
    solver.computeMacroscopic(rho, u);
    stats.accumulate(rho, u);
  }
  const Vec3 inst = solver.velocity(2, ny / 2, 0);
  EXPECT_NEAR(stats.meanVelocity(2, ny / 2, 0).x, inst.x, 1e-6);
  EXPECT_LT(stats.reynoldsStress(0, 0, 2, ny / 2, 0), 1e-12);
}

// --------------------------------------------------- checkpoint controller

TEST(CheckpointControllerTest, SavesOnIntervalAndRotates) {
  // Interval 5 over 23 steps.  An in-place solver's odd phases are not
  // checkpointable, so esoteric takes the odd multiples one step later.
  const std::string prefix =
      (fs::temp_directory_path() / "swlb_rotate").string();
  CollisionConfig cfg;
  cfg.omega = 1.2;
  auto makeSolver = [&](const char* backend) {
    Solver<D2Q9> s(Grid(8, 8, 1), cfg, Periodicity{true, true, true});
    s.setBackend(backend);
    s.finalizeMask();
    return s;
  };
  const std::pair<const char*, std::vector<std::uint64_t>> cases[] = {
      {"fused", {5, 10, 15, 20}}, {"esoteric", {6, 10, 16, 20}}};
  for (const auto& [backend, expected] : cases) {
    SCOPED_TRACE(backend);
    Solver<D2Q9> solver = makeSolver(backend);
    solver.initUniform(1.0, {0.01, 0, 0});
    io::CheckpointController ctl(prefix, {/*interval=*/5, /*keep=*/2});
    std::vector<std::uint64_t> saves;
    for (int s = 0; s < 23; ++s) {
      solver.step();
      if (ctl.maybeSave(solver)) saves.push_back(solver.stepsDone());
    }
    EXPECT_EQ(saves, expected);
    ASSERT_EQ(ctl.retained().size(), 2u);
    EXPECT_EQ(ctl.retained().front(), expected[2]);
    EXPECT_EQ(ctl.retained().back(), 20u);
    // Rotated-out files are gone, retained ones exist.
    EXPECT_FALSE(fs::exists(ctl.pathFor(expected[0])));
    EXPECT_FALSE(fs::exists(ctl.pathFor(10)));
    EXPECT_TRUE(fs::exists(ctl.pathFor(expected[2])));
    EXPECT_TRUE(fs::exists(ctl.pathFor(20)));

    // Restore the newest and confirm the step counter.
    Solver<D2Q9> resumed = makeSolver(backend);
    resumed.initUniform(1.0, {0, 0, 0});
    ctl.restoreLatest(resumed);
    EXPECT_EQ(resumed.stepsDone(), 20u);

    ctl.clear();
    EXPECT_FALSE(fs::exists(ctl.pathFor(20)));
    EXPECT_THROW(ctl.restoreLatest(resumed), Error);
  }
}

TEST(CheckpointControllerTest, ScanSkipsStepNumbersPastSixtyFourBits) {
  const fs::path dir = fs::temp_directory_path() / "swlb_scan_long_step";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prefix = (dir / "run").string();
  Solver<D2Q9> solver(Grid(8, 8, 1), CollisionConfig{},
                      Periodicity{true, true, true});
  solver.finalizeMask();
  solver.initUniform(1.0, {0.01, 0, 0});
  io::CheckpointController ctl(prefix, {/*interval=*/5, /*keep=*/2});
  for (int s = 0; s < 5; ++s) solver.step();
  ASSERT_TRUE(ctl.maybeSave(solver));
  const std::string stray = prefix + ".step99999999999999999999999.ckpt";
  std::ofstream(stray) << "stray";

  io::CheckpointController again(prefix, {5, 2}, /*discoverExisting=*/true);
  ASSERT_EQ(again.retained().size(), 1u);
  EXPECT_EQ(again.retained().front(), 5u);
  EXPECT_TRUE(fs::exists(stray));  // skipped, not taken for a checkpoint
  fs::remove_all(dir);
}

TEST(CheckpointControllerTest, RejectsDegeneratePolicies) {
  EXPECT_THROW(io::CheckpointController("x", {0, 2}), Error);
  EXPECT_THROW(io::CheckpointController("x", {10, 0}), Error);
}

}  // namespace
}  // namespace swlb
