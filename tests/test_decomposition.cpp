// Block decomposition: coverage, balance, neighbour lookup, grid choice.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/decomposition.hpp"
#include "runtime/halo.hpp"

namespace swlb::runtime {
namespace {

TEST(Decomposition, BlocksTileTheDomainExactly) {
  const Int3 global{100, 70, 50};
  Decomposition d(global, {4, 3, 1});
  std::vector<char> covered(static_cast<std::size_t>(global.x) * global.y * global.z, 0);
  long long total = 0;
  for (int r = 0; r < d.rankCount(); ++r) {
    const Box3 b = d.blockOf(r);
    total += b.volume();
    for (int z = b.lo.z; z < b.hi.z; ++z)
      for (int y = b.lo.y; y < b.hi.y; ++y)
        for (int x = b.lo.x; x < b.hi.x; ++x) {
          auto& c = covered[(static_cast<std::size_t>(z) * global.y + y) * global.x + x];
          EXPECT_EQ(c, 0) << "cell covered twice";
          c = 1;
        }
  }
  EXPECT_EQ(total, static_cast<long long>(global.x) * global.y * global.z);
}

TEST(Decomposition, RemainderSpreadKeepsBalanceTight) {
  // 103 cells over 4 ranks: blocks of 26/26/26/25 along x.
  Decomposition d({103, 10, 10}, {4, 1, 1});
  EXPECT_LE(d.imbalance(), 26.0 / 25.0 + 1e-12);
  int sizes[4];
  for (int r = 0; r < 4; ++r) sizes[r] = d.localSize(r).x;
  EXPECT_EQ(sizes[0] + sizes[1] + sizes[2] + sizes[3], 103);
  for (int r = 0; r < 4; ++r) EXPECT_TRUE(sizes[r] == 25 || sizes[r] == 26);
}

TEST(Decomposition, CoordsRankRoundTrip) {
  Decomposition d({40, 40, 40}, {4, 3, 2});
  for (int r = 0; r < d.rankCount(); ++r) {
    const Int3 c = d.coordsOf(r);
    EXPECT_EQ(d.rankOf(c, false, false, false), r);
  }
}

TEST(Decomposition, NonPeriodicEdgeHasNoNeighbour) {
  Decomposition d({40, 40, 10}, {4, 2, 1});
  EXPECT_EQ(d.rankOf({-1, 0, 0}, false, false, false), -1);
  EXPECT_EQ(d.rankOf({4, 1, 0}, false, false, false), -1);
  EXPECT_EQ(d.rankOf({0, 2, 0}, false, false, false), -1);
}

TEST(Decomposition, PeriodicAxesWrapAround) {
  Decomposition d({40, 40, 10}, {4, 2, 1});
  EXPECT_EQ(d.rankOf({-1, 0, 0}, true, false, false), d.rankOf({3, 0, 0}, false, false, false));
  EXPECT_EQ(d.rankOf({4, 1, 0}, true, false, false), d.rankOf({0, 1, 0}, false, false, false));
  EXPECT_EQ(d.rankOf({0, -1, 0}, false, true, false), d.rankOf({0, 1, 0}, false, false, false));
}

TEST(Decomposition, ChoosePrefers2DXYScheme) {
  // Paper §IV-C1: 2-D xy decomposition, full z per subdomain.
  const Int3 grid = Decomposition::choose(16, {1000, 1000, 1000});
  EXPECT_EQ(grid.z, 1);
  EXPECT_EQ(grid.x * grid.y, 16);
  // A square domain wants a square process grid.
  EXPECT_EQ(grid.x, 4);
  EXPECT_EQ(grid.y, 4);
}

TEST(Decomposition, ChooseAdaptsToElongatedDomains) {
  // Long x domain: more cuts along x reduce halo area.
  const Int3 grid = Decomposition::choose(8, {8000, 100, 100});
  EXPECT_EQ(grid.z, 1);
  EXPECT_GT(grid.x, grid.y);
}

TEST(Decomposition, ChooseHandlesPrimeRankCounts) {
  const Int3 grid = Decomposition::choose(7, {700, 700, 10});
  EXPECT_EQ(grid.x * grid.y * grid.z, 7);
}

TEST(Decomposition, Choose3DBeats2DOnCubes) {
  // Allowing pz > 1 cannot do worse than forcing pz == 1.
  const Int3 g2 = Decomposition::choose(64, {512, 512, 512}, false);
  const Int3 g3 = Decomposition::choose(64, {512, 512, 512}, true);
  Decomposition d2({512, 512, 512}, g2);
  Decomposition d3({512, 512, 512}, g3);
  EXPECT_LE(d3.totalHaloArea(), d2.totalHaloArea());
  EXPECT_GT(g3.z, 1);  // cube wants a 4x4x4 grid
}

TEST(Decomposition, SingleRankHasNoHalo) {
  Decomposition d({50, 50, 50}, {1, 1, 1});
  EXPECT_EQ(d.totalHaloArea(), 0);
  EXPECT_EQ(d.imbalance(), 1.0);
  EXPECT_EQ(d.blockOf(0).volume(), 50LL * 50 * 50);
}

TEST(Decomposition, RejectsInvalidConfigurations) {
  EXPECT_THROW(Decomposition({0, 10, 10}, {1, 1, 1}), Error);
  EXPECT_THROW(Decomposition({10, 10, 10}, {0, 1, 1}), Error);
  EXPECT_THROW(Decomposition({4, 4, 4}, {8, 1, 1}), Error);  // px > nx
  EXPECT_THROW(Decomposition::choose(0, {10, 10, 10}), Error);
}

TEST(Decomposition, HaloAreaModelMatchesHaloExchangeVolume) {
  // Cost-model regression (the totalHaloArea undercount bugfix): on a
  // 2x2 grid the model must equal the cell volume HaloPlan actually
  // ships — corner columns included, strips spanning the z halo.
  // bytesPerExchange is in turn pinned to the live halo.bytes wire
  // counters by test_obs_integration.HaloBytesCounterMatchesModel.
  const Int3 global{10, 8, 4};
  Decomposition d(global, {2, 2, 1});
  const int q = 19;
  const std::size_t elem = sizeof(double);
  std::size_t wire = 0;
  for (int r = 0; r < d.rankCount(); ++r) {
    const Int3 n = d.localSize(r);
    HaloPlan h(d, r, Periodicity{false, false, false},
                   Grid(n.x, n.y, n.z));
    wire += h.bytesPerExchange(q, elem);
  }
  EXPECT_EQ(wire, static_cast<std::size_t>(d.totalHaloArea()) * q * elem);
}

TEST(Decomposition, HaloAreaCountsCornersAndZHalo) {
  // 2x2 over 10x8x4: each rank has 2 face strips + 1 corner column, all
  // spanning nz + 2 = 6 rows.  Σ = 2*(2*4*6 + 2*5*6 + ... ) worked out:
  // x-faces: 4 strips of ny*6, y-faces: 4 strips of nx*6, corners: 4
  // columns of 6.
  Decomposition d({10, 8, 4}, {2, 2, 1});
  const long long expected = 4 * (4LL * 6) + 4 * (5LL * 6) + 4 * 6;
  EXPECT_EQ(d.totalHaloArea(), expected);
}

TEST(Decomposition, ChooseThrowsWhenNoGridFits) {
  // 7 is prime and exceeds every axis: the explicit not-found fallback
  // (formerly masked by a dead ternary) must throw, not return garbage.
  EXPECT_THROW(Decomposition::choose(7, {4, 4, 4}), Error);
  EXPECT_THROW(Decomposition::choose(7, {4, 4, 4}, true), Error);
}

TEST(Decomposition, FluidWeightedImbalanceSeesTheMask) {
  // Left half solid: volume imbalance says "balanced", the fluid-weighted
  // overload reports rank 1 carrying twice the mean load.
  const Int3 global{8, 4, 2};
  Decomposition d(global, {2, 1, 1});
  MaskField mask(Grid(global.x, global.y, global.z), MaterialTable::kFluid);
  for (int z = 0; z < global.z; ++z)
    for (int y = 0; y < global.y; ++y)
      for (int x = 0; x < 4; ++x) mask(x, y, z) = MaterialTable::kSolid;
  EXPECT_EQ(d.imbalance(), 1.0);
  EXPECT_NEAR(d.imbalance(mask), 2.0, 1e-12);
  // Uniform mask: both metrics agree on balance.
  MaskField fluid(Grid(global.x, global.y, global.z), MaterialTable::kFluid);
  EXPECT_NEAR(d.imbalance(fluid), 1.0, 1e-12);
}

TEST(Decomposition, PaperScaleWeakScalingBlocks) {
  // Fig. 13 setup: 500x700x100 per CG, 160,000 CGs as 400x400 grid.
  const Int3 global{500 * 400, 700 * 400, 100};
  Decomposition d(global, {400, 400, 1});
  EXPECT_EQ(d.rankCount(), 160000);
  const Int3 local = d.localSize(0);
  EXPECT_EQ(local.x, 500);
  EXPECT_EQ(local.y, 700);
  EXPECT_EQ(local.z, 100);
  // 5.6 trillion cells in total.
  const double cells = static_cast<double>(global.x) * global.y * global.z;
  EXPECT_NEAR(cells, 5.6e12, 1e10);
}

}  // namespace
}  // namespace swlb::runtime
