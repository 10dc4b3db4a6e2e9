// Group checkpoint/restart and gathered output for distributed runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <sstream>

#include "core/solver.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel_io.hpp"

namespace swlb::runtime {
namespace {

namespace fs = std::filesystem;

std::string tmpPrefix(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

void removeGroup(const std::string& prefix, int ranks) {
  std::remove(group_manifest_path(prefix).c_str());
  for (int r = 0; r < ranks; ++r)
    std::remove(group_checkpoint_path(prefix, r).c_str());
}

DistributedSolver<D2Q9>::Config tgvConfig(int n) {
  DistributedSolver<D2Q9>::Config cfg;
  cfg.global = {n, n, 1};
  cfg.collision.omega = 1.3;
  cfg.periodic = {true, true, true};
  cfg.patchGrid = {2, 2, 1};
  return cfg;
}

void initTgv(DistributedSolver<D2Q9>& solver, int n) {
  const Real k = 2 * std::numbers::pi_v<Real> / n;
  solver.finalizeMask();
  solver.initField([&](int x, int y, int, Real& rho, Vec3& u) {
    rho = 1.0;
    u = {-0.02 * std::cos(k * (x + Real(0.5))) * std::sin(k * (y + Real(0.5))),
         0.02 * std::sin(k * (x + Real(0.5))) * std::cos(k * (y + Real(0.5))), 0};
  });
}

TEST(GroupCheckpoint, RestartContinuesBitwiseAcrossWorlds) {
  const int n = 24, total = 60, atStep = 24;
  const std::string prefix = tmpPrefix("swlb_group_a");

  // Uninterrupted reference run.
  PopulationField reference;
  {
    World world(4);
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9> solver(c, tgvConfig(n));
      initTgv(solver, n);
      solver.run(total);
      PopulationField g = solver.gatherPopulations(0);
      if (c.rank() == 0) reference = std::move(g);
    });
  }
  // Run to the checkpoint, then "crash" (the World is destroyed).
  {
    World world(4);
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9> solver(c, tgvConfig(n));
      initTgv(solver, n);
      solver.run(atStep);
      save_group_checkpoint(solver, prefix);
    });
  }
  // Fresh world: restore, finish, compare bit for bit.
  {
    World world(4);
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9> solver(c, tgvConfig(n));
      initTgv(solver, n);
      load_group_checkpoint(solver, prefix);
      EXPECT_EQ(solver.stepsDone(), static_cast<std::uint64_t>(atStep));
      solver.run(total - atStep);
      PopulationField got = solver.gatherPopulations(0);
      if (c.rank() == 0) {
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(got.data()[i], reference.data()[i]);
      }
    });
  }
  removeGroup(prefix, 4);
}

TEST(GroupCheckpoint, ManifestRecordsDecomposition) {
  const std::string prefix = tmpPrefix("swlb_group_b");
  World world(2);
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9>::Config cfg;
    cfg.global = {16, 8, 1};
    cfg.periodic = {true, true, true};
    cfg.patchGrid = {2, 1, 1};
    DistributedSolver<D2Q9> solver(c, cfg);
    solver.finalizeMask();
    solver.initUniform(1.0, {0, 0, 0});
    solver.run(3);
    save_group_checkpoint(solver, prefix);
  });
  std::ifstream in(group_manifest_path(prefix));
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string manifest = ss.str();
  EXPECT_NE(manifest.find("ranks 2"), std::string::npos);
  EXPECT_NE(manifest.find("global 16 8 1"), std::string::npos);
  EXPECT_NE(manifest.find("procgrid 2 1 1"), std::string::npos);
  EXPECT_NE(manifest.find("steps 3"), std::string::npos);
  removeGroup(prefix, 2);
}

TEST(GroupCheckpoint, RejectsWrongDecomposition) {
  const std::string prefix = tmpPrefix("swlb_group_c");
  {
    World world(4);
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9> solver(c, tgvConfig(16));
      initTgv(solver, 16);
      save_group_checkpoint(solver, prefix);
    });
  }
  // Restoring onto 2 ranks must fail loudly.
  World world(2);
  EXPECT_THROW(world.run([&](Comm& c) {
    DistributedSolver<D2Q9>::Config cfg = tgvConfig(16);
    cfg.patchGrid = {2, 1, 1};
    DistributedSolver<D2Q9> solver(c, cfg);
    initTgv(solver, 16);
    load_group_checkpoint(solver, prefix);
  }),
               Error);
  removeGroup(prefix, 4);
}

TEST(GroupCheckpoint, MissingManifestThrows) {
  World world(1);
  EXPECT_THROW(world.run([&](Comm& c) {
    DistributedSolver<D2Q9>::Config cfg = tgvConfig(8);
    cfg.patchGrid = {1, 1, 1};
    DistributedSolver<D2Q9> solver(c, cfg);
    initTgv(solver, 8);
    load_group_checkpoint(solver, tmpPrefix("swlb_group_missing"));
  }),
               Error);
}

TEST(GroupCheckpoint, RejectedRestoreLeavesSolverUnchanged) {
  // A generation whose block 3 came from another step must be refused
  // before the solver changes: no step count, parity or population of
  // the live run may move, even though blocks 0..2 are fine.
  const int n = 16;
  const std::string prefix = tmpPrefix("swlb_group_mixed");
  const std::string other = tmpPrefix("swlb_group_other");
  {
    World world(4);
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9> solver(c, tgvConfig(n));
      initTgv(solver, n);
      solver.run(4);
      save_group_checkpoint(solver, other);
      solver.run(3);  // odd: the generation restores parity 1
      save_group_checkpoint(solver, prefix);
    });
  }
  fs::copy_file(group_checkpoint_path(other, 3),
                group_checkpoint_path(prefix, 3),
                fs::copy_options::overwrite_existing);
  World world(1);
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9>::Config cfg = tgvConfig(n);
    cfg.patchGrid = {1, 1, 1};
    DistributedSolver<D2Q9> solver(c, cfg);
    initTgv(solver, n);
    const PopulationField before = solver.f();
    EXPECT_THROW(load_group_checkpoint_elastic(solver, prefix), Error);
    EXPECT_EQ(solver.stepsDone(), 0u);
    EXPECT_EQ(solver.parity(), 0);
    const PopulationField& after = solver.f();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < after.size(); ++i)
      ASSERT_EQ(after.data()[i], before.data()[i]) << i;
  });
  removeGroup(prefix, 4);
  removeGroup(other, 4);
}

TEST(GroupCheckpoint, PatchLayoutRestoresExactAndSpliced) {
  // Blocks, not ranks, own the files.  A generation of 2 ranks x 2
  // patches reloads exactly onto the same patch grid at any rank count
  // and splices onto 4 ranks x 1 patch of another grid; every restored
  // run continues bitwise equal to the run that never stopped.
  const int n = 24, total = 40, atStep = 16;
  const std::string prefix = tmpPrefix("swlb_group_patches");
  PopulationField reference;
  {
    World world(2);
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9> solver(c, tgvConfig(n));
      initTgv(solver, n);
      solver.run(atStep);
      save_group_checkpoint(solver, prefix);
      solver.run(total - atStep);
      PopulationField g = solver.gatherPopulations(0);
      if (c.rank() == 0) reference = std::move(g);
    });
  }
  struct Restore {
    int ranks;
    Int3 patchGrid;
    bool spliced;
  };
  for (const Restore& r : {Restore{2, {2, 2, 1}, false},
                           Restore{1, {2, 2, 1}, false},
                           Restore{4, {4, 1, 1}, true}}) {
    SCOPED_TRACE(std::to_string(r.ranks) + " ranks");
    obs::MetricsRegistry reg;
    WorldConfig wcfg;
    wcfg.metrics = &reg;
    World world(r.ranks, wcfg);
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9>::Config cfg = tgvConfig(n);
      cfg.patchGrid = r.patchGrid;
      DistributedSolver<D2Q9> solver(c, cfg);
      initTgv(solver, n);
      load_group_checkpoint_elastic(solver, prefix);
      EXPECT_EQ(solver.stepsDone(), static_cast<std::uint64_t>(atStep));
      solver.run(total - atStep);
      PopulationField got = solver.gatherPopulations(0);
      if (c.rank() == 0) {
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(got.data()[i], reference.data()[i]) << i;
      }
    });
    EXPECT_EQ(reg.histogramSummary("checkpoint.splice_restore").count,
              r.spliced ? 4u : 0u);
  }
  removeGroup(prefix, 4);
}

TEST(GatheredOutput, MacroscopicFieldsMatchSerialReference) {
  // A porous strip pins one rule for which cells report their population
  // moments (serial output, cell readers and the gather agree), and the
  // esoteric case ends on an odd step, so the gather must decode the
  // rotated in-place layout.
  const int n = 16;
  const Real solidity = 0.3;
  const Box3 strip{{5, 0, 0}, {7, n, 1}};
  struct Case {
    const char* backend;
    HaloMode mode;
    int steps;
  };
  for (const Case& tc : {Case{"fused", HaloMode::Overlap, 20},
                         Case{"esoteric", HaloMode::Sequential, 21}}) {
    SCOPED_TRACE(tc.backend);
    // Serial two-lattice reference.
    CollisionConfig col;
    col.omega = 1.3;
    Solver<D2Q9> ref(Grid(n, n, 1), col, Periodicity{true, true, true});
    ref.paint(strip, ref.materials().addPorous(solidity));
    ref.finalizeMask();
    const Real k = 2 * std::numbers::pi_v<Real> / n;
    ref.initField([&](int x, int y, int, Real& rho, Vec3& u) {
      rho = 1.0;
      u = {-0.02 * std::cos(k * (x + Real(0.5))) * std::sin(k * (y + Real(0.5))),
           0.02 * std::sin(k * (x + Real(0.5))) * std::cos(k * (y + Real(0.5))), 0};
    });
    ref.run(tc.steps);
    ScalarField rhoRef(ref.grid());
    VectorField uRef(ref.grid());
    ref.computeMacroscopic(rhoRef, uRef);
    EXPECT_EQ(uRef.at(5, 3, 0), ref.velocity(5, 3, 0));
    EXPECT_NE(uRef.at(5, 3, 0), (Vec3{0, 0, 0}));

    World world(4);
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9>::Config cfg = tgvConfig(n);
      cfg.backend = tc.backend;
      cfg.mode = tc.mode;
      DistributedSolver<D2Q9> solver(c, cfg);
      solver.paintGlobal(strip, solver.materials().addPorous(solidity));
      initTgv(solver, n);
      solver.run(tc.steps);
      ScalarField rho;
      VectorField u;
      gather_macroscopic(solver, 0, rho, u);
      if (c.rank() == 0) {
        for (int y = 0; y < n; ++y)
          for (int x = 0; x < n; ++x) {
            ASSERT_EQ(rho(x, y, 0), rhoRef(x, y, 0));
            ASSERT_EQ(u.at(x, y, 0), uRef.at(x, y, 0));
          }
      }
    });
  }
}

TEST(GatheredOutput, VtkFileWrittenOnRootOnly) {
  const std::string path = tmpPrefix("swlb_gathered.vtk");
  World world(4);
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(16));
    initTgv(solver, 16);
    solver.run(5);
    write_vtk_gathered(solver, 0, path);
  });
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("DIMENSIONS 16 16 1"), std::string::npos);
  EXPECT_NE(ss.str().find("VECTORS velocity"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swlb::runtime
