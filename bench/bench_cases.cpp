// Measured mini versions of the paper's §V flow cases (cylinder DNS,
// Suboff, urban wind, plus the framework's lid cavity): host MLUPS, the
// modeled core-group MLUPS for the same block, and a key observable per
// case.  These are the "who wins, what's the magnitude" measured rows
// behind Figs. 12/18/19.
//
// With --json <path> the same rows are serialized as a swlb-bench-v1
// BenchReport (per-case phase breakdowns from a bound MetricsRegistry) —
// the writer behind the BENCH_baseline.json seed at the repo root.
#include <cstring>
#include <iostream>

#include "app/cases.hpp"
#include "obs/bench_report.hpp"
#include "obs/context.hpp"
#include "obs/step_profiler.hpp"
#include "perf/report.hpp"
#include "perf/scaling.hpp"

using namespace swlb;

namespace {

struct Row {
  std::string name;
  std::string size;
  double cells;
  double steps;
  double mlups;
  std::string observable;
  obs::MetricsRegistry metrics;
};

void runCase(Row& row, const std::string& config, int steps,
             const std::string& obsName, bool withMetrics) {
  std::istringstream in(config);
  app::Case c = app::build_case(app::Config::parse(in));
  const Grid& g = c.solver->grid();
  StepProfiler prof(static_cast<double>(g.interiorVolume()));
  {
    // Bind the registry only for --json runs: the default path measures
    // the kernel with observability fully off (the no-op TLS branch).
    obs::ScopedBind bind(nullptr, withMetrics ? &row.metrics : nullptr);
    for (int s = 0; s < steps; ++s)
      prof.step([&] { c.solver->step(); });
  }

  row.name = c.name;
  row.size = std::to_string(g.nx) + "x" + std::to_string(g.ny) + "x" +
             std::to_string(g.nz);
  row.cells = static_cast<double>(g.interiorVolume());
  row.steps = steps;
  row.mlups = prof.mlups();
  if (c.obstacleId != 0) {
    const Vec3 f = c.solver->force(c.obstacleId);
    row.observable = obsName + " = " + perf::Table::num(f.x, 5);
  } else {
    const Vec3 u = c.solver->velocity(g.nx / 2, g.ny / 2, g.nz / 2);
    row.observable = obsName + " = " + perf::Table::num(u.x, 5);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: bench_cases [--json <path>]\n";
      return 2;
    }
  }

  perf::printHeading("Measured flow cases (host, D3Q19 fused kernel)");
  perf::Table t({"case", "cells", "host MLUPS", "observable"});

  const bool withMetrics = !jsonPath.empty();
  Row rows[4];
  runCase(rows[0], "case = cavity\nnx = 32\nny = 32\nnz = 32\nomega = 1.6\n",
          150, "u_x(centre)", withMetrics);
  runCase(rows[1],
          "case = channel\nnx = 8\nny = 24\nnz = 8\nbody_force = 1e-6\n", 400,
          "u_x(centre)", withMetrics);
  runCase(rows[2],
          "case = cylinder\nnx = 96\nny = 48\nnz = 8\ndiameter = 10\n"
          "omega = 1.4\ninlet_velocity = 0.05\n",
          300, "drag F_x", withMetrics);
  runCase(rows[3], "case = tgv\nnx = 48\nny = 48\nomega = 1.0\n", 300,
          "u_x(centre)", withMetrics);
  for (const Row& r : rows)
    t.addRow({r.name, r.size, perf::Table::num(r.mlups, 2), r.observable});
  t.print();

  if (!jsonPath.empty()) {
    obs::BenchReport report("bench_cases");
    for (const Row& r : rows) {
      obs::BenchReport::Result& res = report.add(r.name);
      res.set("mlups", r.mlups);
      res.set("cells", r.cells);
      res.set("steps", r.steps);
      res.setText("size", r.size);
      res.setText("observable", r.observable);
      res.addMetrics(r.metrics);
    }
    report.write(jsonPath);
    std::cout << "\nwrote " << jsonPath << "\n";
  }

  // Modeled per-core-group rate for comparison: what one SW26010 CG would
  // sustain on the same kernel (90.4 MLUPS bound x efficiency).
  perf::ScalingSimulator sim(sw::MachineSpec::sw26010(), perf::LbmCostModel{});
  const auto cost = sim.cgStepCost({500, 700, 100}, 1);
  std::cout << "\nmodeled SW26010 core group on its 35M-cell block: "
            << perf::Table::num(35.0e6 / cost.stepSeconds / 1e6, 1)
            << " MLUPS (bound 90.4)\n";
  return 0;
}
