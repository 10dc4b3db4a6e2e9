// §IV-C1 ablation: on-the-fly halo exchange vs sequential exchange
// (paper: the overlap improves overall performance by ~10%).
//
// Measured for real on the threads-as-ranks runtime with a synthetic
// network latency (without it, shared-memory message passing is too fast
// for the overlap to matter), plus the model's view at full scale.
#include <cstring>
#include <iostream>

#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "perf/report.hpp"
#include "perf/scaling.hpp"
#include "runtime/distributed_solver.hpp"

using namespace swlb;
using runtime::Comm;
using runtime::DistributedSolver;
using runtime::HaloMode;
using runtime::World;
using runtime::WorldConfig;

namespace {

double measure(HaloMode mode, double latency, int steps,
               obs::MetricsRegistry* metrics = nullptr) {
  WorldConfig wc;
  wc.latency = latency;
  wc.busyWait = true;  // the MPE polls while waiting (see WorldConfig)
  wc.metrics = metrics;
  World world(4, wc);
  double mlups = 0;
  world.run([&](Comm& c) {
    DistributedSolver<D3Q19>::Config cfg;
    cfg.global = {64, 64, 32};
    cfg.collision.omega = 1.5;
    cfg.periodic = {true, true, true};
    cfg.patchGrid = {2, 2, 1};
    cfg.mode = mode;
    DistributedSolver<D3Q19> solver(c, cfg);
    solver.finalizeMask();
    solver.initUniform(1.0, {0.02, 0, 0});
    const double m = solver.runMeasured(steps);
    if (c.rank() == 0) mlups = m;
  });
  return mlups;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: bench_halo_overlap [--json <path>]\n";
      return 2;
    }
  }
  obs::BenchReport report("bench_halo_overlap");

  perf::printHeading(
      "On-the-fly halo exchange vs sequential (measured, 4 ranks, 64x64x32)");
  perf::Table t({"network latency", "sequential MLUPS", "overlapped MLUPS",
                 "overlap gain"});
  for (double latency : {0.0, 2e-3, 5e-3}) {
    const int steps = 20;
    const std::string label =
        "latency_" + perf::Table::num(latency * 1e6, 0) + "us";
    obs::MetricsRegistry seqReg, ovlReg;
    const double seq = measure(HaloMode::Sequential, latency, steps,
                               jsonPath.empty() ? nullptr : &seqReg);
    const double ovl = measure(HaloMode::Overlap, latency, steps,
                               jsonPath.empty() ? nullptr : &ovlReg);
    t.addRow({perf::Table::num(latency * 1e6, 0) + " us",
              perf::Table::num(seq, 2), perf::Table::num(ovl, 2),
              perf::Table::num((ovl / seq - 1.0) * 100, 1) + "%"});
    if (!jsonPath.empty()) {
      obs::BenchReport::Result& rs = report.add(label + "_sequential");
      rs.set("mlups", seq);
      rs.set("steps", steps);
      rs.set("latency_s", latency);
      rs.addMetrics(seqReg);
      obs::BenchReport::Result& ro = report.add(label + "_overlap");
      ro.set("mlups", ovl);
      ro.set("steps", steps);
      ro.set("latency_s", latency);
      ro.addMetrics(ovlReg);
    }
  }
  t.print();
  if (!jsonPath.empty()) {
    report.write(jsonPath);
    std::cout << "wrote " << jsonPath << "\n";
  }

  perf::printHeading("Model view at TaihuLight full scale (160,000 CGs)");
  perf::LbmCostModel cost;
  perf::ScalingOptions ovl, seq;
  seq.overlapHalo = false;
  perf::ScalingSimulator simOvl(sw::MachineSpec::sw26010(), cost, ovl);
  perf::ScalingSimulator simSeq(sw::MachineSpec::sw26010(), cost, seq);
  const auto pOvl = simOvl.weakPoint({500, 700, 100}, 400, 400);
  const auto pSeq = simSeq.weakPoint({500, 700, 100}, 400, 400);
  perf::Table m({"scheme", "GLUPS", "efficiency"});
  m.addRow({"sequential (Fig 6(1))", perf::Table::num(pSeq.glups, 0),
            perf::Table::pct(pSeq.efficiency)});
  m.addRow({"on-the-fly (Fig 6(2))", perf::Table::num(pOvl.glups, 0),
            perf::Table::pct(pOvl.efficiency)});
  m.print();
  std::cout << "paper: the on-the-fly scheme improves overall performance by "
               "approximately 10%\n";
  return 0;
}
