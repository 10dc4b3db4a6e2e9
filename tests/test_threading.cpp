// Host-thread executor (core/kernels_team.hpp): disjoint z-slab writes
// make any thread count bit-identical to the serial kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <thread>
#include <vector>

#include "core/solver.hpp"

namespace swlb {
namespace {

class ThreadCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountSweep, BitIdenticalToSerialKernel) {
  const int threads = GetParam();
  auto run = [&](int n) {
    CollisionConfig cfg;
    cfg.omega = 1.4;
    Solver<D3Q19> solver(Grid(12, 10, 9), cfg, Periodicity{true, true, true});
    solver.setHostThreads(n);
    const auto lidLess = solver.materials().addMovingWall({0.03, 0, 0});
    solver.paint({{2, 2, 2}, {5, 5, 5}}, MaterialTable::kSolid);
    solver.paint({{8, 3, 3}, {10, 6, 6}}, lidLess);
    solver.finalizeMask();
    solver.initField([](int x, int y, int z, Real& rho, Vec3& u) {
      rho = 1.0 + 0.003 * ((x * 3 + y * 5 + z * 7) % 11);
      u = {0.02 * std::sin(0.4 * y), 0.01 * std::cos(0.6 * z), 0.005};
    });
    solver.run(12);
    return solver;
  };
  Solver<D3Q19> serial = run(1);
  Solver<D3Q19> parallel = run(threads);
  ASSERT_EQ(serial.f().size(), parallel.f().size());
  for (std::size_t i = 0; i < serial.f().size(); ++i)
    ASSERT_EQ(serial.f().data()[i], parallel.f().data()[i]);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountSweep, ::testing::Values(2, 3, 4, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param).insert(0, 1, 't');
                         });

TEST(Threading, ExecutorSlabsPartitionTheRange) {
  // Whatever the lane request, the executor runs min(resolved lanes, nz)
  // disjoint z-slabs that exactly cover the range (x/y untouched).
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(resolve_host_threads(0), hw > 0 ? static_cast<int>(hw) : 1);
  for (int threads : {1, 2, 3, 0, 64}) {
    for (int nz : {1, 2, 5, 9}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " nz=" + std::to_string(nz));
      const Box3 range{{1, 2, 3}, {6, 4, 3 + nz}};
      std::mutex mu;
      std::vector<Box3> slabs;
      run_slabs(range, threads, [&](const Box3& slab) {
        std::lock_guard<std::mutex> lock(mu);
        slabs.push_back(slab);
      });
      const int lanes = std::min(resolve_host_threads(threads), nz);
      ASSERT_EQ(static_cast<int>(slabs.size()), lanes);
      std::sort(slabs.begin(), slabs.end(), [](const Box3& a, const Box3& b) {
        return a.lo.z < b.lo.z;
      });
      int z = range.lo.z;
      for (const Box3& slab : slabs) {
        EXPECT_EQ(slab.lo.x, range.lo.x);
        EXPECT_EQ(slab.hi.x, range.hi.x);
        EXPECT_EQ(slab.lo.y, range.lo.y);
        EXPECT_EQ(slab.hi.y, range.hi.y);
        EXPECT_EQ(slab.lo.z, z);  // no gap, no overlap
        EXPECT_GT(slab.hi.z, slab.lo.z);
        z = slab.hi.z;
      }
      EXPECT_EQ(z, range.hi.z);
    }
  }
}

/// A periodic D3Q19 block at equilibrium with a fused backend, for the
/// backend-level executor tests below.
struct FusedBlock {
  explicit FusedBlock(const Grid& g)
      : grid(g),
        mask(g, MaterialTable::kFluid),
        src(g, D3Q19::Q),
        backend(make_backend<D3Q19, Real>("fused")) {
    fill_halo_mask(mask, Periodicity{true, true, true}, MaterialTable::kSolid);
    Real feq[D3Q19::Q];
    equilibria<D3Q19>(1.0, {0.02, -0.01, 0}, feq);
    for (int q = 0; q < D3Q19::Q; ++q)
      for (int z = -1; z <= g.nz; ++z)
        for (int y = -1; y <= g.ny; ++y)
          for (int x = -1; x <= g.nx; ++x) src(q, x, y, z) = feq[q];
    cfg.omega = 1.2;
  }
  void run(PopulationField& dst, const Box3& range, int threads) {
    BackendStepArgs<D3Q19, Real> args;
    args.src = &src;
    args.dst = &dst;
    args.mask = &mask;
    args.mats = &mats;
    args.cfg = &cfg;
    args.range = range;
    backend->run(args, threads);
  }

  Grid grid;
  MaskField mask;
  MaterialTable mats;
  CollisionConfig cfg;
  PopulationField src;
  std::unique_ptr<KernelBackend<D3Q19, Real>> backend;
};

TEST(Threading, MoreThreadsThanSlabsStillCorrect) {
  // nz = 2 with 8 threads: the executor clamps the lane count.
  FusedBlock block(Grid(8, 8, 2));
  PopulationField a(block.grid, D3Q19::Q), b(block.grid, D3Q19::Q);
  block.run(a, block.grid.interior(), 1);
  block.run(b, block.grid.interior(), 8);
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a.data()[i], b.data()[i]);
}

TEST(Threading, SubRangeDispatchRespectsBounds) {
  // A partial z-range with threads must only write that range.
  FusedBlock block(Grid(6, 6, 8));
  PopulationField dst(block.grid, D3Q19::Q);
  dst.fill(-7.0);  // sentinel
  Box3 range = block.grid.interior();
  range.lo.z = 2;
  range.hi.z = 6;
  block.run(dst, range, 3);
  EXPECT_EQ(dst(0, 3, 3, 1), -7.0);  // untouched below
  EXPECT_EQ(dst(0, 3, 3, 6), -7.0);  // untouched above
  EXPECT_NE(dst(0, 3, 3, 3), -7.0);  // written inside
}

}  // namespace
}  // namespace swlb
