// Patch-based decomposition vs the static uniform split (DESIGN.md §13).
//
// The paper's §IV-C1 decomposition gives every rank the same cell
// *volume*; on a masked case (here 36 % solid) the rank that draws the
// all-fluid block becomes the critical path while the solid-heavy rank
// idles.  This bench runs the same masked channel three ways, all on
// DistributedSolver:
//
//   static         — one block per rank, uniform 2x2 split, Overlap
//   patch_balanced — fluid-weighted bisection over the Morton curve (4x4
//                    patches on 4 ranks), Sequential
//   rebalance      — the *uniform-count* assignment (the static-split
//                    proxy) on a finer 8x8 patch grid, Sequential, then
//                    one measured rebalance from per-patch step-time EMAs
//
// and reports MLUPS, the max/min per-rank compute seconds, and the
// measured imbalance before/after the rebalance migration.
//
// With --json <path> the rows are serialized as a swlb-bench-v1
// BenchReport — the writer behind the BENCH_patches.json seed.
#include <cstring>
#include <iostream>
#include <vector>

#include "obs/bench_report.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "perf/report.hpp"
#include "runtime/distributed_solver.hpp"

using namespace swlb;
using namespace swlb::runtime;

namespace {

constexpr Int3 kGlobal{96, 96, 8};
constexpr int kRanks = 4;
constexpr int kSteps = 40;
// Solid block covering the low-x/low-y corner: 0.6 * 0.6 = 36 % of the
// domain, entirely inside the static split's rank (0,0).
constexpr Box3 kSolidBox{{0, 0, 0}, {58, 58, kGlobal.z}};

void initSmooth(int x, int y, int z, Real& rho, Vec3& u) {
  rho = 1.0 + 0.01 * ((x + 2 * y + 3 * z) % 7);
  u = {0.02, 0.01, 0.0};
}

double solidFraction() {
  const double solid = static_cast<double>(kSolidBox.volume());
  const double all =
      static_cast<double>(kGlobal.x) * kGlobal.y * kGlobal.z;
  return solid / all;
}

struct RunResult {
  double mlups = 0;
  double maxRankComputeS = 0;
  double minRankComputeS = 0;
  double fluidImbalance = 0;  ///< fluid-weighted load imbalance (max/mean)
};

/// Static uniform split: per-rank compute time comes from each rank's own
/// metrics registry (compute.interior + compute.frontier span totals).
RunResult runStatic() {
  RunResult out;
  std::vector<double> computeS(kRanks, 0.0);
  World world(kRanks);
  world.run([&](Comm& c) {
    obs::MetricsRegistry reg;
    obs::ScopedBind bind(nullptr, &reg);
    typename DistributedSolver<D3Q19>::Config cfg;
    cfg.global = kGlobal;
    cfg.collision.omega = 1.7;
    cfg.periodic = {true, true, true};
    cfg.mode = HaloMode::Overlap;
    cfg.patchGrid = {2, 2, 1};
    DistributedSolver<D3Q19> solver(c, cfg);
    solver.paintGlobal(kSolidBox, MaterialTable::kSolid);
    solver.finalizeMask();
    solver.initField(initSmooth);
    const double mlups = solver.runMeasured(kSteps);
    computeS[static_cast<std::size_t>(c.rank())] =
        reg.histogramSummary("compute.interior").total +
        reg.histogramSummary("compute.frontier").total;
    if (c.rank() == 0) out.mlups = mlups;
  });
  out.maxRankComputeS = *std::max_element(computeS.begin(), computeS.end());
  out.minRankComputeS = *std::min_element(computeS.begin(), computeS.end());
  Decomposition d(kGlobal, {2, 2, 1});
  MaskField mask(Grid(kGlobal.x, kGlobal.y, kGlobal.z),
                 MaterialTable::kFluid);
  for (int z = kSolidBox.lo.z; z < kSolidBox.hi.z; ++z)
    for (int y = kSolidBox.lo.y; y < kSolidBox.hi.y; ++y)
      for (int x = kSolidBox.lo.x; x < kSolidBox.hi.x; ++x)
        mask(x, y, z) = MaterialTable::kSolid;
  out.fluidImbalance = d.imbalance(mask);
  return out;
}

RunResult runPatchBalanced() {
  RunResult out;
  std::vector<double> computeS(kRanks, 0.0);
  World world(kRanks);
  world.run([&](Comm& c) {
    typename DistributedSolver<D3Q19>::Config cfg;
    cfg.global = kGlobal;
    cfg.collision.omega = 1.7;
    cfg.periodic = {true, true, true};
    cfg.mode = HaloMode::Sequential;
    cfg.patchGrid = {4, 4, 1};
    DistributedSolver<D3Q19> solver(c, cfg);
    solver.paintGlobal(kSolidBox, MaterialTable::kSolid);
    solver.finalizeMask();
    solver.initField(initSmooth);
    const double mlups = solver.runMeasured(kSteps);
    computeS[static_cast<std::size_t>(c.rank())] = solver.computeSeconds();
    if (c.rank() == 0) {
      out.mlups = mlups;
      out.fluidImbalance = PatchLayout::rankImbalance(
          solver.owners(),
          solver.layout().fluidWeights(solver.globalMask(),
                                       solver.materials()),
          c.size());
    }
  });
  out.maxRankComputeS = *std::max_element(computeS.begin(), computeS.end());
  out.minRankComputeS = *std::min_element(computeS.begin(), computeS.end());
  return out;
}

struct RebalanceResult {
  double imbalanceBefore = 0;
  double imbalanceAfter = 0;
  int migrations = 0;
};

/// Uniform-count start (the static-split proxy), a few steps to warm the
/// per-patch EMAs, one measured rebalance.
RebalanceResult runRebalance() {
  RebalanceResult out;
  World world(kRanks);
  world.run([&](Comm& c) {
    typename DistributedSolver<D3Q19>::Config cfg;
    cfg.global = kGlobal;
    cfg.collision.omega = 1.7;
    cfg.periodic = {true, true, true};
    cfg.mode = HaloMode::Sequential;
    cfg.patchGrid = {8, 8, 1};
    cfg.assignment = DistributedSolver<D3Q19>::Assignment::UniformCount;
    DistributedSolver<D3Q19> solver(c, cfg);
    solver.paintGlobal(kSolidBox, MaterialTable::kSolid);
    solver.finalizeMask();
    solver.initField(initSmooth);
    solver.run(8);  // warm the measured EMAs
    const std::vector<double> w = solver.measuredWeights();
    const double before =
        PatchLayout::rankImbalance(solver.owners(), w, c.size());
    const int moved = solver.rebalanceNow(w, 1.05);
    const double after =
        PatchLayout::rankImbalance(solver.owners(), w, c.size());
    solver.run(4);  // prove the migrated layout still steps
    if (c.rank() == 0) {
      out.imbalanceBefore = before;
      out.imbalanceAfter = after;
      out.migrations = moved;
    }
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: bench_patches [--json <path>]\n";
      return 2;
    }
  }

  const RunResult stat = runStatic();
  const RunResult bal = runPatchBalanced();
  const RebalanceResult reb = runRebalance();

  perf::printHeading(
      "Patch-balanced vs static decomposition — masked channel " +
      std::to_string(kGlobal.x) + "x" + std::to_string(kGlobal.y) + "x" +
      std::to_string(kGlobal.z) + ", 36% solid, " + std::to_string(kRanks) +
      " ranks, " + std::to_string(kSteps) + " steps");
  perf::Table t({"scheme", "MLUPS", "max rank compute", "min rank compute",
                 "fluid imbalance"});
  t.addRow({"static 2x2", perf::Table::num(stat.mlups, 2),
            perf::Table::num(stat.maxRankComputeS * 1e3, 2) + " ms",
            perf::Table::num(stat.minRankComputeS * 1e3, 2) + " ms",
            perf::Table::num(stat.fluidImbalance, 3)});
  t.addRow({"patch-balanced 4x4", perf::Table::num(bal.mlups, 2),
            perf::Table::num(bal.maxRankComputeS * 1e3, 2) + " ms",
            perf::Table::num(bal.minRankComputeS * 1e3, 2) + " ms",
            perf::Table::num(bal.fluidImbalance, 3)});
  t.print();
  std::cout << "Fluid-weighted bisection spreads the streaming cells the "
               "static volume split cannot see.\n";

  perf::printHeading("Measured rebalance from per-patch step-time EMAs");
  perf::Table r({"imbalance before", "imbalance after", "patches migrated"});
  r.addRow({perf::Table::num(reb.imbalanceBefore, 3),
            perf::Table::num(reb.imbalanceAfter, 3),
            std::to_string(reb.migrations)});
  r.print();

  if (!jsonPath.empty()) {
    obs::BenchReport report("bench_patches");
    const double cells =
        static_cast<double>(kGlobal.x) * kGlobal.y * kGlobal.z;
    auto common = [&](obs::BenchReport::Result& res) {
      res.set("cells", cells);
      res.set("steps", kSteps);
      res.set("ranks", kRanks);
      res.set("solid_fraction", solidFraction());
      res.setText("size", std::to_string(kGlobal.x) + "x" +
                              std::to_string(kGlobal.y) + "x" +
                              std::to_string(kGlobal.z));
    };
    obs::BenchReport::Result& rs = report.add("static");
    common(rs);
    rs.set("mlups", stat.mlups);
    rs.set("max_rank_compute_s", stat.maxRankComputeS);
    rs.set("min_rank_compute_s", stat.minRankComputeS);
    rs.set("fluid_imbalance", stat.fluidImbalance);
    obs::BenchReport::Result& rb = report.add("patch_balanced");
    common(rb);
    rb.set("mlups", bal.mlups);
    rb.set("max_rank_compute_s", bal.maxRankComputeS);
    rb.set("min_rank_compute_s", bal.minRankComputeS);
    rb.set("fluid_imbalance", bal.fluidImbalance);
    obs::BenchReport::Result& rr = report.add("rebalance");
    common(rr);
    rr.set("imbalance_before", reb.imbalanceBefore);
    rr.set("imbalance_after", reb.imbalanceAfter);
    rr.set("migrations", reb.migrations);
    report.write(jsonPath);
    std::cout << "\nwrote " << jsonPath << "\n";
  }
  return 0;
}
