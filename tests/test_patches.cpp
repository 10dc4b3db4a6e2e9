// Patch-based decomposition (runtime/patches, DESIGN.md §13): SFC
// ordering determinism, weighted-bisection balance on skewed masks, and
// the bit-identity contract — any patch layout of DistributedSolver,
// intra- or inter-rank, under either halo schedule, with or without
// mid-run migration, two-lattice or in place, must reproduce the
// monolithic single-block solver exactly (same pull update, same ghost
// data).  The suite keeps its historical name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/solver.hpp"
#include "kernel_conformance.hpp"
#include "obs/metrics.hpp"
#include "runtime/distributed_solver.hpp"

namespace swlb::runtime {
namespace {

using conformance::Scenario;
using swlb::Solver;
using Engine = DistributedSolver<D3Q19>;

constexpr HaloMode kBothModes[] = {HaloMode::Sequential, HaloMode::Overlap};

/// Same smooth deterministic field as conformance::initSmooth, as a free
/// function so the monolithic reference and the patch solver share it.
void smoothField(int x, int y, int z, Real& rho, Vec3& u) {
  rho = 1.0 + 0.03 * std::sin(0.7 * x + 0.3) * std::cos(0.5 * y + 0.1) *
                  std::cos(0.4 * z + 0.2);
  u = {0.02 * std::sin(0.5 * x + 0.1), 0.015 * std::cos(0.6 * y + 0.2),
       0.01 * std::sin(0.3 * z + 0.4)};
}

std::vector<Scenario> patchScenarios() {
  std::vector<Scenario> out;
  out.push_back({"all_fluid_periodic", {7, 5, 3}, {true, true, true},
                 nullptr, false});
  out.push_back({"solid_obstacle", {9, 7, 3}, {true, true, true},
                 [](MaskField& mask, MaterialTable&, const Grid& g) {
                   for (int z = 0; z < g.nz; ++z)
                     for (int y = 2; y < 5; ++y)
                       for (int x = 3; x < 6; ++x)
                         mask(x, y, z) = MaterialTable::kSolid;
                 },
                 false});
  out.push_back({"moving_lid", {7, 5, 3}, {false, false, false},
                 [](MaskField& mask, MaterialTable& mats, const Grid& g) {
                   const auto lid = mats.addMovingWall({0.05, 0, 0});
                   for (int z = 0; z < g.nz; ++z)
                     for (int x = 0; x < g.nx; ++x)
                       mask(x, g.ny - 1, z) = lid;
                 },
                 false});
  out.push_back({"inlet_outflow", {9, 5, 3}, {false, true, true},
                 [](MaskField& mask, MaterialTable& mats, const Grid& g) {
                   const auto in = mats.addVelocityInlet({0.04, 0, 0});
                   const auto outF = mats.addOutflow({-1, 0, 0});
                   for (int z = 0; z < g.nz; ++z)
                     for (int y = 0; y < g.ny; ++y) {
                       mask(0, y, z) = in;
                       mask(g.nx - 1, y, z) = outF;
                     }
                 },
                 true});
  return out;
}

Solver<D3Q19> makeReference(const Scenario& sc) {
  CollisionConfig cc;
  cc.omega = 1.7;
  const Grid g(sc.extent.x, sc.extent.y, sc.extent.z);
  Solver<D3Q19> ref(g, cc, sc.periodic);
  if (sc.paint) sc.paint(ref.mask(), ref.materials(), g);
  ref.finalizeMask();
  ref.initField(smoothField);
  return ref;
}

/// Run the scenario on `ranks` rank-threads with the given patch grid and
/// halo schedule and compare gathered populations against the monolithic
/// reference after every step.  With `migrateAt > 0`, force a rebalance
/// (skewed explicit weights) at that step and require at least one actual
/// migration.
void expectPatchRunMatchesMonolithic(const Scenario& sc, int ranks,
                                     const Int3& patchGrid, int steps,
                                     HaloMode mode, int migrateAt = 0,
                                     std::uint64_t rebalanceEvery = 0,
                                     const std::string& backend = "fused",
                                     std::map<int, std::string>
                                         patchBackends = {},
                                     int hostThreads = 1) {
  SCOPED_TRACE(sc.name + " ranks=" + std::to_string(ranks) + " patches=" +
               std::to_string(patchGrid.x) + "x" +
               std::to_string(patchGrid.y) + " " + backend +
               (mode == HaloMode::Overlap ? " overlap" : " sequential"));
  Solver<D3Q19> ref = makeReference(sc);

  World world(ranks);
  world.run([&](Comm& c) {
    Engine::Config cfg;
    cfg.global = sc.extent;
    cfg.collision.omega = 1.7;
    cfg.periodic = sc.periodic;
    cfg.mode = mode;
    cfg.patchGrid = patchGrid;
    cfg.rebalanceEvery = rebalanceEvery;
    cfg.rebalanceThreshold = 1.0001;  // hair trigger for the measured path
    cfg.backend = backend;
    cfg.patchBackends = patchBackends;
    cfg.hostThreads = hostThreads;
    Engine solver(c, cfg);
    const Grid g(sc.extent.x, sc.extent.y, sc.extent.z);
    if (sc.paint) sc.paint(solver.globalMask(), solver.materials(), g);
    solver.finalizeMask();
    solver.initField(smoothField);

    for (int s = 0; s < steps; ++s) {
      // Only rank 0 advances the shared monolithic reference: the lambda
      // runs on every rank-thread, and concurrent ref.step() calls would
      // race (and over-step) the reference.
      if (c.rank() == 0) ref.step();
      solver.run(1);  // the step, then the measured rebalance when due
      if (migrateAt > 0 && s + 1 == migrateAt) {
        // Skew one patch's weight so the greedy planner must move work
        // off its owner; every rank passes the identical vector.  The
        // heavy patch is picked on a rank owning at least two patches,
        // so at least one light sibling can actually move.
        std::vector<double> w(
            static_cast<std::size_t>(solver.layout().patchCount()), 1.0);
        std::vector<int> cnt(static_cast<std::size_t>(c.size()), 0);
        for (int o : solver.owners()) ++cnt[static_cast<std::size_t>(o)];
        int heavy = 0;
        for (std::size_t p = 0; p < solver.owners().size(); ++p)
          if (cnt[static_cast<std::size_t>(solver.owners()[p])] >= 2) {
            heavy = static_cast<int>(p);
            break;
          }
        w[static_cast<std::size_t>(heavy)] = 100.0;
        const std::vector<int> before = solver.owners();
        const int moved = solver.rebalanceNow(w, 1.01);
        if (c.rank() == 0) {
          EXPECT_GT(moved, 0) << "forced rebalance moved nothing";
          EXPECT_NE(before, solver.owners());
        }
      }
      PopulationField gathered = solver.gatherPopulations(0);
      // Rank 0 verifies and broadcasts a failure flag so every rank bails
      // out of the loop together — a lone early return would leave the
      // other rank-threads blocked in the next collective.
      int failed = 0;
      const int kFailTag = (1 << 21) + s;
      if (c.rank() == 0) {
        const PopulationField& expect = ref.f();
        // Wall cells are a scratch mailbox under in-place streaming
        // (conformance::expectEquivalent skips them the same way).
        auto mailbox = [&](int x, int y, int z) {
          const CellClass cls = ref.materials()[ref.mask()(x, y, z)].cls;
          return solver.inPlace() &&
                 (cls == CellClass::Solid || cls == CellClass::MovingWall);
        };
        int bad = 0, bq = 0, bx = 0, by = 0, bz = 0;
        for (int q = 0; q < D3Q19::Q; ++q)
          for (int z = 0; z < sc.extent.z; ++z)
            for (int y = 0; y < sc.extent.y; ++y)
              for (int x = 0; x < sc.extent.x; ++x)
                if (!mailbox(x, y, z) &&
                    gathered(q, x, y, z) != expect(q, x, y, z)) {
                  if (bad == 0) {
                    bq = q;
                    bx = x;
                    by = y;
                    bz = z;
                  }
                  ++bad;
                }
        if (bad > 0)
          ADD_FAILURE() << sc.name << " step " << s + 1 << ": " << bad
                        << " mismatched cells, first at q=" << bq << " ("
                        << bx << "," << by << "," << bz << ") got "
                        << gathered(bq, bx, by, bz) << " want "
                        << expect(bq, bx, by, bz);
        failed = ::testing::Test::HasFailure() ? 1 : 0;
        for (int r = 1; r < c.size(); ++r)
          c.isend(r, kFailTag, &failed, sizeof(failed));
      } else {
        c.recv(0, kFailTag, &failed, sizeof(failed));
      }
      if (failed) return;
    }
  });
}

// ---- layout: SFC order + bisection ------------------------------------

TEST(PatchLayout, MortonOrderIsDeterministicAndComplete) {
  const PatchLayout a({32, 32, 8}, {4, 4, 1});
  const PatchLayout b({32, 32, 8}, {4, 4, 1});
  EXPECT_EQ(a.sfcOrder(), b.sfcOrder());

  std::vector<int> sorted = a.sfcOrder();
  std::sort(sorted.begin(), sorted.end());
  for (int p = 0; p < 16; ++p) EXPECT_EQ(sorted[static_cast<size_t>(p)], p);

  // Z-order over a 4x4 grid starts with the (0..1, 0..1) quadrant:
  // (0,0), (1,0), (0,1), (1,1) -> ids 0, 1, 4, 5 (x fastest).
  ASSERT_GE(a.sfcOrder().size(), 4u);
  EXPECT_EQ(a.sfcOrder()[0], 0);
  EXPECT_EQ(a.sfcOrder()[1], 1);
  EXPECT_EQ(a.sfcOrder()[2], 4);
  EXPECT_EQ(a.sfcOrder()[3], 5);
}

TEST(PatchLayout, BisectionBalancesSkewedWeights) {
  const PatchLayout layout({64, 64, 4}, {8, 8, 1});
  const int nranks = 4;
  // Skewed "mask": the left half of the domain is 10x the work.
  std::vector<double> w(64);
  for (int p = 0; p < 64; ++p)
    w[static_cast<size_t>(p)] =
        layout.decomposition().coordsOf(p).x < 4 ? 10.0 : 1.0;

  const std::vector<int> owners = layout.assignBisect(w, nranks);
  std::vector<int> counts(nranks, 0);
  for (int o : owners) {
    ASSERT_GE(o, 0);
    ASSERT_LT(o, nranks);
    ++counts[static_cast<size_t>(o)];
  }
  for (int r = 0; r < nranks; ++r) EXPECT_GE(counts[static_cast<size_t>(r)], 1);

  // Contiguous curve segments: owner is non-decreasing along the curve.
  for (std::size_t i = 1; i < layout.sfcOrder().size(); ++i)
    EXPECT_GE(owners[static_cast<size_t>(layout.sfcOrder()[i])],
              owners[static_cast<size_t>(layout.sfcOrder()[i - 1])]);

  // Weighted bisection lands near ideal; equal-count segments (the
  // static-split proxy) bottleneck on the heavy half.
  const double weighted = PatchLayout::rankImbalance(owners, w, nranks);
  std::vector<int> uniform(64);
  for (std::size_t i = 0; i < 64; ++i)
    uniform[static_cast<size_t>(layout.sfcOrder()[i])] =
        static_cast<int>(i) / 16;
  const double unweighted = PatchLayout::rankImbalance(uniform, w, nranks);
  EXPECT_LE(weighted, 1.25);
  EXPECT_GT(unweighted, 1.5);
}

TEST(PatchLayout, FluidWeightsCountStreamingCells) {
  const Int3 global{8, 8, 2};
  const PatchLayout layout(global, {2, 2, 1});
  MaskField mask(Grid(global.x, global.y, global.z), MaterialTable::kFluid);
  MaterialTable mats;
  const auto por = mats.addPorous(0.4);
  // Patch 0 (x<4, y<4) fully solid; one porous (streaming) cell in patch 1.
  for (int z = 0; z < 2; ++z)
    for (int y = 0; y < 4; ++y)
      for (int x = 0; x < 4; ++x) mask(x, y, z) = MaterialTable::kSolid;
  mask(5, 1, 0) = por;

  const std::vector<double> w = layout.fluidWeights(mask, mats);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w[0], 0.0);   // all solid
  EXPECT_EQ(w[1], 32.0);  // 4x4x2, porous still streams
  EXPECT_EQ(w[2], 32.0);
  EXPECT_EQ(w[3], 32.0);
}

TEST(PatchLayout, PlanRebalanceBringsImbalanceUnderThreshold) {
  const PatchLayout layout({32, 16, 2}, {4, 2, 1});  // 8 patches
  const int nranks = 2;
  // Equal-count assignment with one hot patch: rank 0 carries 13 of 20.
  std::vector<double> w{6.0, 1.0, 1.0, 1.0, 5.0, 2.0, 2.0, 2.0};
  std::vector<int> owners(8);
  for (std::size_t i = 0; i < 8; ++i)
    owners[static_cast<size_t>(layout.sfcOrder()[i])] = i < 4 ? 0 : 1;

  const double before = PatchLayout::rankImbalance(owners, w, nranks);
  const auto moves = layout.planRebalance(owners, w, nranks, 1.05);
  ASSERT_FALSE(moves.empty());
  std::vector<int> after = owners;
  for (const auto& m : moves) {
    EXPECT_EQ(after[static_cast<size_t>(m.patch)], m.from);
    after[static_cast<size_t>(m.patch)] = m.to;
  }
  const double imb = PatchLayout::rankImbalance(after, w, nranks);
  EXPECT_LT(imb, before);
  EXPECT_LE(imb, 1.05);
  // No rank emptied.
  std::vector<int> counts(nranks, 0);
  for (int o : after) ++counts[static_cast<size_t>(o)];
  for (int r = 0; r < nranks; ++r) EXPECT_GE(counts[static_cast<size_t>(r)], 1);
}

// ---- bit-identity vs the monolithic solver ----------------------------

TEST(PatchSolver, IntraRankPatchFacesMatchMonolithic) {
  // One rank, four patches: every patch face is a local copy.
  for (HaloMode mode : kBothModes)
    for (const Scenario& sc : patchScenarios())
      expectPatchRunMatchesMonolithic(sc, 1, {2, 2, 1}, 6, mode);
}

TEST(PatchSolver, InterRankPatchFacesMatchMonolithic) {
  // Four ranks, sixteen patches (down to 1-cell-wide strips on the 7-
  // and 5-cell axes): faces mix local copies and tagged messages.
  for (HaloMode mode : kBothModes)
    for (const Scenario& sc : patchScenarios())
      expectPatchRunMatchesMonolithic(sc, 4, {4, 4, 1}, 6, mode);
}

TEST(PatchSolver, MigrateThenContinueIsBitIdentical) {
  // Force a mid-run migration; the continued run must stay bit-identical
  // to the monolithic reference (hence to an unmigrated patch run, which
  // the tests above pin to the same reference).
  const Int3 global{16, 12, 6};
  Scenario cyl{"cylinder_channel", global, {false, false, true},
               [](MaskField& mask, MaterialTable& mats, const Grid& g) {
                 const auto in = mats.addVelocityInlet({0.04, 0, 0});
                 const auto outF = mats.addOutflow({-1, 0, 0});
                 for (int z = 0; z < g.nz; ++z)
                   for (int y = 0; y < g.ny; ++y) {
                     mask(0, y, z) = in;
                     mask(g.nx - 1, y, z) = outF;
                   }
                 for (int z = 0; z < g.nz; ++z)
                   for (int y = 4; y < 8; ++y)
                     for (int x = 6; x < 9; ++x)
                       mask(x, y, z) = MaterialTable::kSolid;
               },
               true};
  for (HaloMode mode : kBothModes)
    expectPatchRunMatchesMonolithic(cyl, 4, {4, 2, 1}, 12, mode,
                                    /*migrateAt=*/6);
}

TEST(PatchSolver, MeasuredRebalanceKeepsBitIdentity) {
  // Hair-trigger measured rebalancing (every 3 steps, threshold ~1):
  // whatever the noisy timers decide, results must not change.
  Scenario sc{"solid_obstacle", {9, 7, 3}, {true, true, true},
              [](MaskField& mask, MaterialTable&, const Grid& g) {
                for (int z = 0; z < g.nz; ++z)
                  for (int y = 2; y < 5; ++y)
                    for (int x = 3; x < 6; ++x)
                      mask(x, y, z) = MaterialTable::kSolid;
              },
              false};
  for (HaloMode mode : kBothModes)
    expectPatchRunMatchesMonolithic(sc, 2, {4, 2, 1}, 9, mode, 0,
                                    /*rebalanceEvery=*/3);
}

TEST(PatchSolver, FluidWeightedAssignmentSkipsSolidHeavyImbalance) {
  // A half-solid domain: fluid-weighted bisection should spread the fluid
  // cells evenly while the uniform-count proxy (static split) leaves one
  // rank nearly idle.
  const Int3 global{32, 16, 4};
  World world(4);
  world.run([&](Comm& c) {
    Engine::Config cfg;
    cfg.global = global;
    cfg.periodic = {true, true, true};
    cfg.patchGrid = {8, 4, 1};
    Engine solver(c, cfg);
    solver.paintGlobal({{0, 0, 0}, {16, 16, 4}}, MaterialTable::kSolid);
    solver.finalizeMask();
    const std::vector<double> w = solver.layout().fluidWeights(
        solver.globalMask(), solver.materials());
    const double fluidImb =
        PatchLayout::rankImbalance(solver.owners(), w, c.size());
    EXPECT_LE(fluidImb, 1.3);
    // Every rank owns at least one patch.
    std::vector<int> counts(c.size(), 0);
    for (int o : solver.owners()) ++counts[static_cast<size_t>(o)];
    if (c.rank() == 0) {
      for (int r = 0; r < c.size(); ++r)
        EXPECT_GE(counts[static_cast<size_t>(r)], 1);
    }
  });
}

// ---- per-patch backend plans -------------------------------------------

TEST(PatchSolver, HeterogeneousPatchBackendsMatchMonolithic) {
  // A user-set mixed plan: default fused with per-patch overrides to
  // swcpe, two host threads per rank.  Both are bit-identical kernels, so
  // a heterogeneous run must still match the monolithic fused reference
  // exactly — including across patch faces where the sender's backend
  // packs the strip and a *different* receiver backend unpacks it, across
  // the executor's z-slab split of the sub-range patches (swcpe gets one
  // whole-block call), and across a forced migration that rebuilds a
  // patch's backend on its new owner from the replicated plan.  swcpe
  // sweeps whole blocks, so the plan runs under Sequential.
  std::map<int, std::string> plan{{0, "swcpe"}, {3, "swcpe"}};
  for (const Scenario& sc : patchScenarios())
    expectPatchRunMatchesMonolithic(sc, 2, {2, 2, 1}, 6, HaloMode::Sequential,
                                    /*migrateAt=*/3, 0, "fused", plan,
                                    /*hostThreads=*/2);
}

TEST(PatchSolver, EsotericPatchesMatchMonolithic) {
  // In-place blocks on 2 ranks x 2 patches: the forward exchange and the
  // reverse one that folds each even sweep's outward scatter back mix
  // local copies (x faces) and messages (y faces, corners), and a forced
  // migration at an even phase rebuilds a block on its new owner.  After
  // every step, odd phases included, the decoded populations equal the
  // two-lattice monolithic reference.
  for (const Scenario& sc : patchScenarios()) {
    if (sc.hasOutflow) continue;  // in-place backends reject Outflow
    expectPatchRunMatchesMonolithic(sc, 2, {2, 2, 1}, 8, HaloMode::Sequential,
                                    /*migrateAt=*/4, 0, "esoteric");
  }
}

TEST(PatchSolver, InPlaceBlocksMigrateAtEvenPhasesOnly) {
  // No block can be rebuilt from the rotated layout an in-place sweep
  // leaves after an odd step: rebalanceNow throws there, and a measured
  // rebalance that falls due at an odd phase runs one step later.
  obs::MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.metrics = &reg;
  World world(2, wcfg);
  world.run([&](Comm& c) {
    Engine::Config cfg;
    cfg.global = {8, 8, 2};
    cfg.periodic = {true, true, true};
    cfg.mode = HaloMode::Sequential;
    cfg.patchGrid = {2, 2, 1};
    cfg.backend = "esoteric";
    cfg.rebalanceEvery = 3;
    Engine solver(c, cfg);
    solver.initUniform(1.0, {0.01, 0, 0});
    solver.run(3);
    const std::vector<double> w = solver.measuredWeights();
    EXPECT_THROW(solver.rebalanceNow(w, 1.0), Error);
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(reg.histogramSummary("patch.rebalance").count, 0u);
    }
    c.barrier();
    solver.run(1);
    c.barrier();
    if (c.rank() == 0) {  // one deferred check per rank, at step 4
      EXPECT_EQ(reg.histogramSummary("patch.rebalance").count, 2u);
    }
  });
}

TEST(PatchSolver, PatchBackendNameResolvesOverrides) {
  World world(1);
  world.run([](Comm& c) {
    Engine::Config cfg;
    cfg.global = {8, 8, 2};
    cfg.mode = HaloMode::Sequential;
    cfg.patchGrid = {2, 2, 1};
    cfg.backend = "swcpe";
    cfg.patchBackends = {{1, "fused"}};
    Engine solver(c, cfg);
    solver.finalizeMask();
    EXPECT_EQ(solver.patchBackendName(0), "swcpe");
    EXPECT_EQ(solver.patchBackendName(1), "fused");
    // Four blocks on the rank: the one-block accessors refuse, and the
    // blocks were built from the global mask, so painting it now would
    // change nothing they read.
    EXPECT_THROW(solver.ownedBox(), Error);
    EXPECT_THROW(solver.f(), Error);
    EXPECT_THROW(solver.paintGlobal({{0, 0, 0}, {1, 1, 1}}, 0), Error);
  });
}

TEST(PatchSolver, RejectsInPlaceBackend) {
  // In-place blocks run any layout under Sequential, but two plans stay
  // refused on every rank, explicitly and naming the capability: esoteric
  // under Overlap (its even sweep must precede its own reverse exchange)
  // and a plan mixing in-place and two-lattice blocks (one step schedule
  // serves one kind).
  struct Case {
    HaloMode mode;
    std::map<int, std::string> plan;
    const char* says;
  };
  for (const Case& tc : {Case{HaloMode::Overlap, {}, "Overlap"},
                         Case{HaloMode::Sequential, {{1, "fused"}}, "mixes"}}) {
    SCOPED_TRACE(tc.says);
    World world(2);
    world.run([&](Comm& c) {
      Engine::Config cfg;
      cfg.global = {8, 8, 2};
      cfg.patchGrid = {2, 2, 1};
      cfg.backend = "esoteric";
      cfg.mode = tc.mode;
      cfg.patchBackends = tc.plan;
      try {
        Engine solver(c, cfg);
        ADD_FAILURE() << "accepted the plan";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("inPlaceStreaming"), std::string::npos) << what;
        EXPECT_NE(what.find(tc.says), std::string::npos) << what;
      }
    });
  }
}

TEST(PatchSolver, RejectsBackendPlanNamingMissingPatch) {
  World world(1);
  EXPECT_THROW(world.run([](Comm& c) {
    Engine::Config cfg;
    cfg.global = {8, 8, 2};
    cfg.mode = HaloMode::Sequential;
    cfg.patchGrid = {2, 2, 1};
    cfg.patchBackends = {{7, "swcpe"}};  // layout has patches 0..3
    Engine solver(c, cfg);
    solver.finalizeMask();
  }),
               Error);
}

}  // namespace
}  // namespace swlb::runtime
