// Distributed solver correctness: any rank count / halo mode must
// reproduce the single-block reference solver exactly, and the physics
// validations must hold across subdomain boundaries.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/solver.hpp"
#include "runtime/distributed_solver.hpp"

namespace swlb::runtime {
namespace {

using swlb::Solver;

struct DistCase {
  int ranks;
  Int3 patchGrid;
  HaloMode mode;
  const char* label;
};

class DistributedEquivalence : public ::testing::TestWithParam<DistCase> {};

/// Reference: single-block solver with a cylinder-ish obstacle, inlet and
/// walls; distributed run must match the gathered populations exactly.
TEST_P(DistributedEquivalence, MatchesSingleBlockReference) {
  const DistCase& tc = GetParam();
  const Int3 global{16, 12, 6};
  const int steps = 12;

  CollisionConfig col;
  col.omega = 1.3;
  const Periodicity per{false, false, true};

  // Reference solution.
  Solver<D3Q19> ref(Grid(global.x, global.y, global.z), col, per);
  const auto refInlet = ref.materials().addVelocityInlet({0.04, 0, 0});
  const auto refOut = ref.materials().addOutflow({-1, 0, 0});
  ref.paint({{0, 0, 0}, {1, global.y, global.z}}, refInlet);
  ref.paint({{global.x - 1, 0, 0}, {global.x, global.y, global.z}}, refOut);
  ref.paint({{6, 4, 0}, {9, 8, global.z}}, MaterialTable::kSolid);
  ref.finalizeMask();
  ref.initUniform(1.0, {0.02, 0, 0});
  ref.run(steps);

  // Distributed solution.
  World world(tc.ranks);
  world.run([&](Comm& c) {
    typename DistributedSolver<D3Q19>::Config cfg;
    cfg.global = global;
    cfg.collision = col;
    cfg.periodic = per;
    cfg.mode = tc.mode;
    cfg.patchGrid = tc.patchGrid;
    DistributedSolver<D3Q19> solver(c, cfg);
    const auto inlet = solver.materials().addVelocityInlet({0.04, 0, 0});
    const auto out = solver.materials().addOutflow({-1, 0, 0});
    solver.paintGlobal({{0, 0, 0}, {1, global.y, global.z}}, inlet);
    solver.paintGlobal({{global.x - 1, 0, 0}, {global.x, global.y, global.z}}, out);
    solver.paintGlobal({{6, 4, 0}, {9, 8, global.z}}, MaterialTable::kSolid);
    solver.finalizeMask();
    solver.initUniform(1.0, {0.02, 0, 0});
    solver.run(steps);

    PopulationField gathered = solver.gatherPopulations(0);
    if (c.rank() == 0) {
      const PopulationField& expect = ref.f();
      for (int q = 0; q < D3Q19::Q; ++q)
        for (int z = 0; z < global.z; ++z)
          for (int y = 0; y < global.y; ++y)
            for (int x = 0; x < global.x; ++x)
              ASSERT_EQ(gathered(q, x, y, z), expect(q, x, y, z))
                  << tc.label << " q=" << q << " (" << x << "," << y << "," << z
                  << ")";
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    RankGridsAndModes, DistributedEquivalence,
    ::testing::Values(
        DistCase{1, {1, 1, 1}, HaloMode::Sequential, "1rank-seq"},
        DistCase{2, {2, 1, 1}, HaloMode::Sequential, "2x1-seq"},
        DistCase{2, {1, 2, 1}, HaloMode::Overlap, "1x2-ovl"},
        DistCase{4, {2, 2, 1}, HaloMode::Sequential, "2x2-seq"},
        DistCase{4, {2, 2, 1}, HaloMode::Overlap, "2x2-ovl"},
        DistCase{4, {4, 1, 1}, HaloMode::Overlap, "4x1-ovl"},
        // Non-power-of-two rank counts: uneven block splits exercise the
        // unbalanced gatherv and the ring collectives' non-po2 chunking.
        DistCase{3, {3, 1, 1}, HaloMode::Sequential, "3x1-seq"},
        DistCase{3, {1, 3, 1}, HaloMode::Overlap, "1x3-ovl"},
        DistCase{5, {5, 1, 1}, HaloMode::Sequential, "5x1-seq"},
        DistCase{5, {1, 5, 1}, HaloMode::Overlap, "1x5-ovl"},
        DistCase{6, {3, 2, 1}, HaloMode::Sequential, "3x2-seq"},
        DistCase{6, {3, 2, 1}, HaloMode::Overlap, "3x2-ovl"}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      std::string s = info.param.label;
      for (auto& ch : s)
        if (ch == '-') ch = '_';
      return s;
    });

TEST(DistributedPeriodic, FullyPeriodicMatchesReference) {
  const Int3 global{12, 12, 4};
  const int steps = 10;
  CollisionConfig col;
  col.omega = 1.1;
  const Periodicity per{true, true, true};

  Solver<D3Q19> ref(Grid(global.x, global.y, global.z), col, per);
  ref.finalizeMask();
  ref.initField([&](int x, int y, int z, Real& rho, Vec3& u) {
    rho = 1.0 + 0.01 * std::sin(2 * std::numbers::pi * x / global.x);
    u = {0.02 * std::cos(2 * std::numbers::pi * y / global.y),
         0.01 * std::sin(2 * std::numbers::pi * z / global.z), 0.005};
  });
  ref.run(steps);

  World world(4);
  world.run([&](Comm& c) {
    typename DistributedSolver<D3Q19>::Config cfg;
    cfg.global = global;
    cfg.collision = col;
    cfg.periodic = per;
    cfg.mode = HaloMode::Overlap;
    cfg.patchGrid = {2, 2, 1};
    DistributedSolver<D3Q19> solver(c, cfg);
    solver.finalizeMask();
    solver.initField([&](int x, int y, int z, Real& rho, Vec3& u) {
      // Wrap halo coordinates periodically to match the reference init.
      const int gx = ((x % global.x) + global.x) % global.x;
      const int gy = ((y % global.y) + global.y) % global.y;
      const int gz = ((z % global.z) + global.z) % global.z;
      rho = 1.0 + 0.01 * std::sin(2 * std::numbers::pi * gx / global.x);
      u = {0.02 * std::cos(2 * std::numbers::pi * gy / global.y),
           0.01 * std::sin(2 * std::numbers::pi * gz / global.z), 0.005};
    });
    solver.run(steps);

    PopulationField gathered = solver.gatherPopulations(0);
    if (c.rank() == 0) {
      for (int q = 0; q < D3Q19::Q; ++q)
        for (int z = 0; z < global.z; ++z)
          for (int y = 0; y < global.y; ++y)
            for (int x = 0; x < global.x; ++x)
              ASSERT_EQ(gathered(q, x, y, z), ref.f()(q, x, y, z));
    }
  });
}

// Two host threads per rank must stay bit-identical to the fused
// single-rank reference when the domain is split across 4 ranks: fused
// in both halo schedules (the executor slices the inner box and every
// shell box into z-slabs, and the fused kernel's bulk/boundary row
// segmentation interacts with the inner/shell split), esoteric through
// the forward+reverse halo exchange pair.  An even step count returns
// the esoteric field to natural layout before the gather.
TEST(DistributedKernelVariants, FourRankBitIdentityToFusedReference) {
  const Int3 global{12, 12, 4};
  const int steps = 10;
  CollisionConfig col;
  col.omega = 1.3;
  const Periodicity per{true, true, true};

  Solver<D3Q19> ref(Grid(global.x, global.y, global.z), col, per);
  ref.finalizeMask();
  auto init = [&](int x, int y, int z, Real& rho, Vec3& u) {
    const int gx = ((x % global.x) + global.x) % global.x;
    const int gy = ((y % global.y) + global.y) % global.y;
    const int gz = ((z % global.z) + global.z) % global.z;
    rho = 1.0 + 0.01 * std::sin(2 * std::numbers::pi * gx / global.x);
    u = {0.02 * std::cos(2 * std::numbers::pi * gy / global.y),
         0.01 * std::sin(2 * std::numbers::pi * gz / global.z), 0.005};
  };
  ref.initField(init);
  ref.run(steps);

  struct Case {
    const char* backend;
    HaloMode mode;
  };
  const Case cases[] = {{"fused", HaloMode::Sequential},
                        {"fused", HaloMode::Overlap},
                        {"esoteric", HaloMode::Sequential}};
  for (const Case& tc : cases) {
    SCOPED_TRACE(std::string(tc.backend) + "/" +
                 (tc.mode == HaloMode::Overlap ? "overlap" : "sequential"));
    World world(4);
    world.run([&](Comm& c) {
      typename DistributedSolver<D3Q19>::Config cfg;
      cfg.global = global;
      cfg.collision = col;
      cfg.periodic = per;
      cfg.mode = tc.mode;
      cfg.backend = tc.backend;
      cfg.hostThreads = 2;
      cfg.patchGrid = {2, 2, 1};
      DistributedSolver<D3Q19> solver(c, cfg);
      solver.finalizeMask();
      solver.initField(init);
      solver.run(steps);

      PopulationField gathered = solver.gatherPopulations(0);
      if (c.rank() == 0) {
        long long bad = 0;
        for (int q = 0; q < D3Q19::Q && bad == 0; ++q)
          for (int z = 0; z < global.z && bad == 0; ++z)
            for (int y = 0; y < global.y && bad == 0; ++y)
              for (int x = 0; x < global.x; ++x)
                if (gathered(q, x, y, z) != ref.f()(q, x, y, z)) {
                  ADD_FAILURE() << "mismatch at q=" << q << " (" << x << ","
                                << y << "," << z << ")";
                  ++bad;
                  break;
                }
        EXPECT_EQ(bad, 0);
      }
    });
  }
}

TEST(DistributedPhysics, TaylorGreenDecayAcrossRanks) {
  const int n = 24;
  const Real nu = 0.03, u0 = 0.02;
  const Real k = 2 * std::numbers::pi / n;
  CollisionConfig col;
  col.omega = omega_from_tau(tau_from_viscosity(nu));

  World world(4);
  world.run([&](Comm& c) {
    typename DistributedSolver<D2Q9>::Config cfg;
    cfg.global = {n, n, 1};
    cfg.collision = col;
    cfg.periodic = {true, true, true};
    cfg.mode = HaloMode::Overlap;
    cfg.patchGrid = {2, 2, 1};
    DistributedSolver<D2Q9> solver(c, cfg);
    solver.finalizeMask();
    solver.initField([&](int x, int y, int, Real& rho, Vec3& u) {
      rho = 1.0;
      u.x = -u0 * std::cos(k * (x + 0.5)) * std::sin(k * (y + 0.5));
      u.y = u0 * std::sin(k * (x + 0.5)) * std::cos(k * (y + 0.5));
    });
    const int steps = 300;
    solver.run(steps);
    const Real decay = std::exp(-2 * nu * k * k * steps);

    // Every rank checks its own cells against the analytic solution.
    const Box3 own = solver.ownedBox();
    for (int ly = 0; ly < solver.localGrid().ny; ++ly)
      for (int lx = 0; lx < solver.localGrid().nx; ++lx) {
        const int gx = own.lo.x + lx;
        const int gy = own.lo.y + ly;
        const Real ex = -u0 * decay * std::cos(k * (gx + 0.5)) * std::sin(k * (gy + 0.5));
        const Vec3 got = solver.velocity(lx, ly, 0);
        ASSERT_NEAR(got.x, ex, 0.03 * u0);
      }
  });
}

TEST(DistributedAdvancedBcs, ZouHeAndPorousAcrossRankBoundaries) {
  // Zou-He inlet/outlet plus a porous block straddling all four rank
  // boundaries must still match the single-block reference bitwise.
  const Int3 global{16, 12, 4};
  const int steps = 10;
  CollisionConfig col;
  col.omega = 1.25;
  const Periodicity per{false, true, true};

  auto setup = [&](auto& s) {
    const auto in = s.materials().addZouHeVelocity({0.04, 0, 0}, {1, 0, 0});
    const auto out = s.materials().addZouHePressure(1.0, {-1, 0, 0});
    const auto porous = s.materials().addPorous(0.25);
    return std::tuple{in, out, porous};
  };

  Solver<D3Q19> ref(Grid(global.x, global.y, global.z), col, per);
  {
    auto [in, out, porous] = setup(ref);
    ref.paint({{0, 0, 0}, {1, global.y, global.z}}, in);
    ref.paint({{global.x - 1, 0, 0}, {global.x, global.y, global.z}}, out);
    ref.paint({{6, 4, 1}, {10, 8, 3}}, porous);  // straddles the 2x2 cut
  }
  ref.finalizeMask();
  ref.initUniform(1.0, {0.04, 0, 0});
  ref.run(steps);

  World world(4);
  world.run([&](Comm& c) {
    typename DistributedSolver<D3Q19>::Config cfg;
    cfg.global = global;
    cfg.collision = col;
    cfg.periodic = per;
    cfg.mode = HaloMode::Overlap;
    cfg.patchGrid = {2, 2, 1};
    DistributedSolver<D3Q19> solver(c, cfg);
    auto [in, out, porous] = setup(solver);
    solver.paintGlobal({{0, 0, 0}, {1, global.y, global.z}}, in);
    solver.paintGlobal({{global.x - 1, 0, 0}, {global.x, global.y, global.z}},
                       out);
    solver.paintGlobal({{6, 4, 1}, {10, 8, 3}}, porous);
    solver.finalizeMask();
    solver.initUniform(1.0, {0.04, 0, 0});
    solver.run(steps);
    PopulationField got = solver.gatherPopulations(0);
    if (c.rank() == 0) {
      for (int q = 0; q < D3Q19::Q; ++q)
        for (int z = 0; z < global.z; ++z)
          for (int y = 0; y < global.y; ++y)
            for (int x = 0; x < global.x; ++x)
              ASSERT_EQ(got(q, x, y, z), ref.f()(q, x, y, z))
                  << q << " " << x << "," << y << "," << z;
    }
  });
}

TEST(DistributedSolverApi, MassIsConservedGlobally) {
  World world(4);
  world.run([](Comm& c) {
    typename DistributedSolver<D3Q19>::Config cfg;
    cfg.global = {12, 12, 6};
    cfg.collision.omega = 1.4;
    cfg.periodic = {true, true, true};
    cfg.patchGrid = {2, 2, 1};
    DistributedSolver<D3Q19> solver(c, cfg);
    solver.finalizeMask();
    solver.initUniform(1.0, {0.02, -0.01, 0.01});
    const Real m0 = solver.globalMass();
    solver.run(20);
    const Real m1 = solver.globalMass();
    EXPECT_NEAR(m1, m0, 1e-9 * m0);
  });
}

TEST(DistributedSolverApi, HaloBytesMatchPlanArea) {
  World world(4);
  world.run([](Comm& c) {
    typename DistributedSolver<D3Q19>::Config cfg;
    cfg.global = {16, 16, 8};
    cfg.periodic = {false, false, false};
    cfg.patchGrid = {2, 2, 1};
    DistributedSolver<D3Q19> solver(c, cfg);
    solver.finalizeMask();
    // Each rank owns 8x8x8; 2 faces of 8x(8+2 halo) cells + 1 corner
    // column of (8+2), all times Q populations of 8 bytes.
    const std::size_t expect =
        (2u * 8 * 10 + 1u * 10) * D3Q19::Q * sizeof(Real);
    EXPECT_EQ(solver.haloBytesPerStep(), expect);
  });
}

TEST(DistributedSolverApi, RunMeasuredAgreesAcrossRanks) {
  World world(2);
  std::vector<double> mlups(2, 0);
  world.run([&](Comm& c) {
    typename DistributedSolver<D3Q19>::Config cfg;
    cfg.global = {16, 8, 8};
    cfg.periodic = {true, true, true};
    cfg.patchGrid = {2, 1, 1};
    DistributedSolver<D3Q19> solver(c, cfg);
    solver.finalizeMask();
    solver.initUniform(1.0, {0.01, 0, 0});
    mlups[static_cast<std::size_t>(c.rank())] = solver.runMeasured(3);
  });
  EXPECT_GT(mlups[0], 0);
  EXPECT_EQ(mlups[0], mlups[1]);
}

TEST(DistributedSolverApi, RejectsMismatchedProcessGrid) {
  // Every rank needs a block: a patch grid with fewer patches than ranks
  // throws on every rank, naming the shortfall.
  World world(2);
  world.run([](Comm& c) {
    typename DistributedSolver<D3Q19>::Config cfg;
    cfg.global = {8, 8, 8};
    cfg.patchGrid = {1, 1, 1};  // 1 block for 2 ranks
    try {
      DistributedSolver<D3Q19> solver(c, cfg);
      ADD_FAILURE() << "accepted 1 patch for 2 ranks";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("1 patches for 2 ranks"),
                std::string::npos)
          << e.what();
    }
  });
}

TEST(DistributedSolverApi, OverlapRejectsBackendsThatCannotSplitTheSweep) {
  // swcpe updates the whole block per call (caps.subRange = false) and
  // esoteric streams in place (its even sweep must precede its own
  // reverse exchange), so neither can run the Overlap inner/shell split.
  // An Overlap request throws, naming the capability; Sequential
  // constructs and steps.
  struct Case {
    const char* backend;
    const char* capability;
  };
  for (const Case& tc : {Case{"swcpe", "subRange"},
                         Case{"esoteric", "inPlaceStreaming"}}) {
    SCOPED_TRACE(tc.backend);
    for (HaloMode mode : {HaloMode::Overlap, HaloMode::Sequential}) {
      World world(2);
      world.run([&](Comm& c) {
        typename DistributedSolver<D2Q9>::Config cfg;
        cfg.global = {8, 8, 1};
        cfg.backend = tc.backend;
        cfg.mode = mode;
        cfg.periodic = {true, true, false};
        if (mode == HaloMode::Overlap) {
          try {
            DistributedSolver<D2Q9> solver(c, cfg);
            ADD_FAILURE() << "Overlap accepted backend " << tc.backend;
          } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find(tc.capability),
                      std::string::npos)
                << e.what();
          }
          return;
        }
        DistributedSolver<D2Q9> solver(c, cfg);
        EXPECT_EQ(solver.backendName(), tc.backend);
        solver.finalizeMask();
        solver.initUniform(1.0, {0.01, 0, 0});
        solver.run(2);
        EXPECT_EQ(solver.stepsDone(), 2u);
        EXPECT_TRUE(solver.populationsFinite());
      });
    }
  }
}

TEST(DistributedSolverApi, HaloModeForPicksAScheduleEveryBackendRuns) {
  // halo_mode_for is the rule the constructor enforces: its pick for an
  // Overlap request builds on every registered backend, and the backends
  // that cannot split the sweep (swcpe, esoteric) get Sequential.
  for (const BackendInfo& info : backend_catalog()) {
    SCOPED_TRACE(info.name);
    const HaloMode mode = halo_mode_for(info.name, HaloMode::Overlap);
    if (info.name == "swcpe" || info.name == "esoteric") {
      EXPECT_EQ(mode, HaloMode::Sequential);
    }
    EXPECT_EQ(halo_mode_for(info.name, HaloMode::Sequential),
              HaloMode::Sequential);
    World world(2);
    world.run([&](Comm& c) {
      typename DistributedSolver<D2Q9>::Config cfg;
      cfg.global = {8, 8, 1};
      cfg.backend = info.name;
      cfg.mode = mode;
      cfg.periodic = {true, true, false};
      EXPECT_NO_THROW(DistributedSolver<D2Q9>(c, cfg));
    });
  }
  EXPECT_EQ(halo_mode_for("fused", HaloMode::Overlap), HaloMode::Overlap);
}

}  // namespace
}  // namespace swlb::runtime
