// Halo-exchange plan unit tests: neighbour discovery, strip geometry,
// inner/shell decomposition, traffic accounting; plus the two strip
// contracts as seen through the engine (complements the end-to-end
// equivalence tests in test_distributed.cpp).
#include <gtest/gtest.h>

#include <set>

#include "core/solver.hpp"
#include "runtime/distributed_solver.hpp"

namespace swlb::runtime {
namespace {

TEST(HaloPlan, InteriorRankHasEightNeighbours) {
  Decomposition d({40, 40, 10}, {4, 4, 1});
  // Rank at grid (1,1): fully interior.
  const int rank = d.rankOf({1, 1, 0}, false, false, false);
  HaloPlan h(d, rank, Periodicity{false, false, false},
                 Grid(10, 10, 10));
  EXPECT_EQ(h.neighborCount(), 8);
}

TEST(HaloPlan, CornerRankWithoutPeriodicityHasThree) {
  Decomposition d({40, 40, 10}, {4, 4, 1});
  HaloPlan h(d, 0, Periodicity{false, false, false}, Grid(10, 10, 10));
  EXPECT_EQ(h.neighborCount(), 3);
}

TEST(HaloPlan, PeriodicWrapRestoresAllEight) {
  Decomposition d({40, 40, 10}, {4, 4, 1});
  HaloPlan h(d, 0, Periodicity{true, true, false}, Grid(10, 10, 10));
  EXPECT_EQ(h.neighborCount(), 8);
}

TEST(HaloPlan, SingleColumnWrapsOntoItself) {
  Decomposition d({40, 40, 10}, {1, 4, 1});
  HaloPlan h(d, 0, Periodicity{true, true, false}, Grid(40, 10, 10));
  // +x and -x neighbours are this rank itself; corners too.
  EXPECT_EQ(h.neighborCount(), 8);
}

TEST(HaloPlan, BytesPerExchangeMatchStripGeometry) {
  // 2x2 grid, non-periodic: each rank sends 1 x-face (ny rows), 1 y-face,
  // 1 corner column, all spanning nz + 2 halo layers.
  Decomposition d({20, 16, 8}, {2, 2, 1});
  const Int3 local = d.localSize(0);  // 10 x 8 x 8
  HaloPlan h(d, 0, Periodicity{false, false, false},
                 Grid(local.x, local.y, local.z));
  const std::size_t zExt = static_cast<std::size_t>(local.z) + 2;
  const std::size_t cells = (local.y + local.x + 1) * zExt;
  EXPECT_EQ(h.bytesPerExchange(19), cells * 19 * sizeof(Real));
}

TEST(HaloPlan, InnerBoxShrinksOnlyDecomposedAxes) {
  {
    Decomposition d({20, 16, 8}, {2, 1, 1});
    HaloPlan h(d, 0, Periodicity{false, false, false}, Grid(10, 16, 8));
    const Box3 inner = h.innerBox();
    EXPECT_EQ(inner.lo.x, 1);
    EXPECT_EQ(inner.hi.x, 9);
    EXPECT_EQ(inner.lo.y, 0);  // y not decomposed, not shrunk
    EXPECT_EQ(inner.hi.y, 16);
  }
  {
    Decomposition d({20, 16, 8}, {1, 1, 1});
    HaloPlan h(d, 0, Periodicity{false, false, false}, Grid(20, 16, 8));
    EXPECT_EQ(h.innerBox(), (Grid(20, 16, 8)).interior());
    EXPECT_TRUE(h.boundaryShell().empty());
  }
}

TEST(HaloPlan, ShellPlusInnerTilesTheInteriorExactly) {
  Decomposition d({24, 20, 6}, {2, 2, 1});
  const Int3 local = d.localSize(3);
  Grid g(local.x, local.y, local.z);
  HaloPlan h(d, 3, Periodicity{true, true, false}, g);

  std::set<std::tuple<int, int, int>> covered;
  auto cover = [&](const Box3& b) {
    for (int z = b.lo.z; z < b.hi.z; ++z)
      for (int y = b.lo.y; y < b.hi.y; ++y)
        for (int x = b.lo.x; x < b.hi.x; ++x) {
          const auto [it, fresh] = covered.insert({x, y, z});
          EXPECT_TRUE(fresh) << "cell covered twice: " << x << "," << y << "," << z;
        }
  };
  cover(h.innerBox());
  for (const Box3& b : h.boundaryShell()) cover(b);
  EXPECT_EQ(static_cast<long long>(covered.size()), g.interior().volume());
}

TEST(HaloPlan, RejectsUnsupportedConfigurations) {
  Decomposition dz({20, 20, 20}, {2, 1, 2});
  EXPECT_THROW(HaloPlan(dz, 0, Periodicity{}, Grid(10, 20, 10)), Error);
  Decomposition d({20, 20, 20}, {2, 1, 1});
  EXPECT_THROW(HaloPlan(d, 0, Periodicity{}, Grid(10, 20, 20, /*halo=*/2)),
               Error);
}

TEST(HaloExchangeData, MaskStripsArriveInNeighbourHalo) {
  // Two ranks side by side: a porous column on rank 0's +x face must
  // appear in rank 1's -x ghost ring once the engine builds its blocks
  // (the replicated global mask is the ghost-mask oracle).
  World world(2);
  world.run([](Comm& c) {
    DistributedSolver<D3Q19>::Config cfg;
    cfg.global = {8, 4, 2};
    cfg.patchGrid = {2, 1, 1};
    DistributedSolver<D3Q19> solver(c, cfg);
    const std::uint8_t porous = solver.materials().addPorous(0.3);
    solver.paintGlobal({{3, 0, 0}, {4, 4, 2}}, porous);
    solver.finalizeMask();
    if (c.rank() == 1) {
      for (int z = 0; z < 2; ++z)
        for (int y = 0; y < 4; ++y)
          EXPECT_EQ(solver.mask()(-1, y, z), porous) << y << "," << z;
      EXPECT_EQ(solver.mask()(4, 0, 0), MaterialTable::kSolid);  // wall side
    }
  });
}

TEST(HaloExchangeData, PopulationStripsIncludeZHaloRows) {
  // The exchanged strips span z in [-1, nz+1): with z periodic, a pull
  // that crosses the rank boundary and the z wrap at once reads the
  // sender's z-halo row.  initField fills every ghost cell from the
  // periodic init function, so step 1 reads no ghost data the exchange
  // changes; from step 2 on only the exchange refreshes the x-halo's
  // z-halo rows.  Four steps of a diagonal flow on 2 ranks must equal the
  // single-block solver bit for bit.
  const int steps = 4;
  const Int3 global{8, 4, 2};
  auto init = [](int x, int y, int z, Real& rho, Vec3& u) {
    rho = 1.0 + 0.01 * (((x % 8) + 8) % 8) + 0.003 * (((z % 2) + 2) % 2);
    u = {0.02, 0.01 * (((y % 4) + 4) % 4), 0.015};
  };
  CollisionConfig col;
  col.omega = 1.2;
  Solver<D3Q19> ref(Grid(global.x, global.y, global.z), col,
                    Periodicity{true, true, true});
  ref.finalizeMask();
  ref.initField(init);
  for (int s = 0; s < steps; ++s) ref.step();
  for (HaloMode mode : {HaloMode::Sequential, HaloMode::Overlap}) {
    World world(2);
    world.run([&](Comm& c) {
      DistributedSolver<D3Q19>::Config cfg;
      cfg.global = global;
      cfg.collision = col;
      cfg.periodic = {true, true, true};
      cfg.mode = mode;
      cfg.patchGrid = {2, 1, 1};
      DistributedSolver<D3Q19> solver(c, cfg);
      solver.initField(init);
      solver.run(steps);
      const PopulationField got = solver.gatherPopulations(0);
      if (c.rank() != 0) return;
      for (int q = 0; q < D3Q19::Q; ++q)
        for (int z = 0; z < global.z; ++z)
          for (int y = 0; y < global.y; ++y)
            for (int x = 0; x < global.x; ++x)
              ASSERT_EQ(got(q, x, y, z), ref.f()(q, x, y, z))
                  << q << " " << x << "," << y << "," << z;
    });
  }
}

}  // namespace
}  // namespace swlb::runtime
