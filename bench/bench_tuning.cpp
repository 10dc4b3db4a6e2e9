// Auto-tuner bench (DESIGN.md §9): the plan the tuner picks for a
// 4-rank 64x64x32 cavity next to both untuned halo schedules.
//
// Two views:
//   1. backend trials — the measured MLUPS ladder of a second plan with
//      backendTrialSteps > 0, straight from its evidence;
//   2. halo scheduling — both modes measured for real on the
//      threads-as-ranks runtime with synthetic network latency (the same
//      setup as bench_halo_overlap); the tuned row reuses the measurement
//      of whichever mode the plan selected, so it is compared with
//      numbers from one table, not separate runs.  `tuned_over_best` is
//      the tuned step over the faster untuned one: 1 when the modeled
//      pick was also the faster schedule on this host.  The exit check
//      (tuned <= worst untuned) holds by construction; it guards the
//      table, not the model.
#include <algorithm>
#include <cstring>
#include <iostream>

#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "perf/report.hpp"
#include "runtime/distributed_solver.hpp"
#include "tune/tuner.hpp"

using namespace swlb;
using runtime::Comm;
using runtime::DistributedSolver;
using runtime::HaloMode;
using runtime::World;
using runtime::WorldConfig;

namespace {

constexpr Int3 kExtent{64, 64, 32};
constexpr int kRanks = 4;
constexpr double kLatency = 2e-3;  // synthetic; see bench_halo_overlap
constexpr int kSteps = 20;

/// Mean step seconds of a 4-rank run under `mode` (slowest rank).
double measureStepSeconds(HaloMode mode) {
  WorldConfig wc;
  wc.latency = kLatency;
  wc.busyWait = true;
  World world(kRanks, wc);
  double mlups = 0;
  world.run([&](Comm& c) {
    DistributedSolver<D3Q19>::Config cfg;
    cfg.global = kExtent;
    cfg.collision.omega = 1.5;
    cfg.periodic = {true, true, true};
    cfg.patchGrid = {2, 2, 1};
    cfg.mode = mode;
    DistributedSolver<D3Q19> solver(c, cfg);
    solver.finalizeMask();
    solver.initUniform(1.0, {0.02, 0, 0});
    const double m = solver.runMeasured(kSteps);
    if (c.rank() == 0) mlups = m;
  });
  const double cells =
      static_cast<double>(kExtent.x) * kExtent.y * kExtent.z;
  return cells / (mlups * 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: bench_tuning [--json <path>]\n";
      return 2;
    }
  }
  obs::BenchReport report("bench_tuning");

  // ---- the plan --------------------------------------------------------
  tune::TuningInput tin;
  tin.lattice = "D3Q19";
  tin.extent = kExtent;
  tin.ranks = kRanks;
  obs::MetricsRegistry tuneReg;
  tune::TuningPlan plan;
  {
    obs::ScopedBind bind(nullptr, &tuneReg);
    plan = tune::Tuner().plan(tin);
  }
  perf::printHeading("Auto-tuned plan for " + tin.key().toString());
  std::cout << tune::summary(plan) << "\n";

  // ---- backend trials (measured MLUPS ladder) --------------------------
  // A second plan with short wall-clock trials enabled: the tuner runs
  // the backend ladder on a proxy lattice and records the pick.
  tune::TunerConfig trialCfg;
  trialCfg.backendTrialSteps = 10;
  tune::TuningPlan trialPlan;
  {
    obs::ScopedBind bind(nullptr, &tuneReg);
    trialPlan = tune::Tuner(trialCfg).plan(tin);
  }
  perf::printHeading("Backend trial ladder (measured, proxy lattice)");
  perf::Table kt({"backend", "trial MLUPS", "note"});
  for (const char* name : {"fused", "esoteric"}) {
    const auto it = trialPlan.evidence.find(std::string("trial.backend.") +
                                            name + "_mlups");
    kt.addRow({name,
               it == trialPlan.evidence.end() ? "-"
                                              : perf::Table::num(it->second, 2),
               trialPlan.backend == name ? "<- tuned pick" : ""});
  }
  kt.print();

  // ---- halo scheduling: measured both ways -----------------------------
  const double seqS = measureStepSeconds(HaloMode::Sequential);
  const double ovlS = measureStepSeconds(HaloMode::Overlap);
  const double tunedS =
      plan.haloMode == HaloMode::Overlap ? ovlS : seqS;
  const double worstS = std::max(seqS, ovlS);
  const double tunedOverBest = tunedS / std::min(seqS, ovlS);

  perf::printHeading("Halo scheduling, measured (4 ranks, 64x64x32, " +
                     perf::Table::num(kLatency * 1e6, 0) + " us latency)");
  perf::Table t({"configuration", "step seconds", "note"});
  t.addRow({"sequential", perf::Table::num(seqS * 1e3, 3) + " ms",
            plan.haloMode == HaloMode::Sequential ? "<- tuned pick" : ""});
  t.addRow({"overlap", perf::Table::num(ovlS * 1e3, 3) + " ms",
            plan.haloMode == HaloMode::Overlap ? "<- tuned pick" : ""});
  t.addRow({"tuned plan", perf::Table::num(tunedS * 1e3, 3) + " ms",
            "tuned_over_best = " + perf::Table::num(tunedOverBest, 3)});
  t.print();

  if (!jsonPath.empty()) {
    obs::BenchReport::Result& rs = report.add("halo_sequential");
    rs.set("step_s", seqS);
    rs.set("steps", kSteps);
    rs.set("latency_s", kLatency);
    obs::BenchReport::Result& ro = report.add("halo_overlap");
    ro.set("step_s", ovlS);
    ro.set("steps", kSteps);
    ro.set("latency_s", kLatency);
    obs::BenchReport::Result& rt2 = report.add("tuned");
    rt2.set("step_s", tunedS);
    rt2.set("worst_untuned_step_s", worstS);
    rt2.set("tuned_over_best", tunedOverBest);
    rt2.set("halo_overlap", plan.haloMode == HaloMode::Overlap ? 1 : 0);
    rt2.setText("key", tin.key().toString());
    rt2.setText("halo_mode", tune::halo_mode_name(plan.haloMode));
    rt2.setText("source", plan.source);
    rt2.setText("backend", trialPlan.backend);
    for (const char* name : {"fused", "esoteric"}) {
      const auto it = trialPlan.evidence.find(std::string("trial.backend.") +
                                              name + "_mlups");
      if (it != trialPlan.evidence.end())
        rt2.set(std::string("backend_trial_") + name + "_mlups", it->second);
    }
    rt2.addMetrics(tuneReg);
    report.write(jsonPath);
    std::cout << "wrote " << jsonPath << "\n";
  }

  const bool ok = tunedS <= worstS;
  std::cout << (ok ? "tuned plan is <= the worst untuned configuration\n"
                   : "TUNING REGRESSION: tuned plan slower than worst "
                     "untuned configuration\n");
  return ok ? 0 : 1;
}
