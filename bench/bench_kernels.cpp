// Kernel-variant MLUPS ladder — the measured ablations behind the
// paper's design choices (§IV-A/C) plus the in-place variant this repo
// adds on top of the fused pull kernel:
//
//   * fused     — production SoA pull kernel (baseline, ratio 1.0); its
//                 all-fluid bulk runs go direction-outer and vectorize
//   * esoteric  — in-place single-buffer streaming (Esoteric-Pull): half
//                 the population memory, no second lattice
//
// Each is run at f64/f32/f16 population storage; the legacy ablations
// (generic pull, two-step, push, AoS layout) ride along at f64.  Rows
// report best-of-3 MLUPS, the *actual allocated* population bytes of the
// solver (so the esoteric 0.5x memory claim is measured, not asserted),
// and the memory ratio against the two-lattice fused baseline at the same
// storage width.
//
// With --json <path> the rows are serialized as a swlb-bench-v1
// BenchReport — the writer behind the BENCH_kernels.json seed and the CI
// smoke that checks the esoteric speed and memory halving against fused.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/precision.hpp"
#include "core/solver.hpp"
#include "obs/bench_report.hpp"
#include "obs/step_profiler.hpp"
#include "perf/report.hpp"

using namespace swlb;

namespace {

constexpr int kN = 48;
constexpr int kStepsPerRep = 20;  // even: esoteric reps end in natural phase
constexpr int kReps = 3;

struct Row {
  std::string variant;
  std::string storage;
  double mlups = 0;              ///< best-of-kReps
  std::size_t populationBytes = 0;  ///< actually allocated by the solver
  double memRatio = 0;           ///< vs two-lattice fused, same storage
};

template <class S>
Row runVariant(const char* backend) {
  CollisionConfig cfg;
  cfg.omega = 1.6;
  Solver<D3Q19, S> solver(Grid(kN, kN, kN), cfg, Periodicity{true, true, true});
  solver.setBackend(backend);
  solver.finalizeMask();
  solver.initField([](int x, int y, int z, Real& rho, Vec3& u) {
    rho = 1.0 + 0.01 * ((x + 2 * y + 3 * z) % 7 - 3) / 3.0;
    u = {0.02, 0.01, -0.01};
  });

  const double cells = static_cast<double>(solver.grid().interiorVolume());
  solver.run(kStepsPerRep);  // warmup (touch pages, warm caches)
  Row row;
  row.variant = backend;
  row.storage = StorageTraits<S>::name();
  row.populationBytes = solver.populationBytes();
  const std::size_t oneLattice =
      static_cast<std::size_t>(solver.f().size()) * sizeof(S);
  row.memRatio = static_cast<double>(row.populationBytes) /
                 static_cast<double>(2 * oneLattice);
  for (int rep = 0; rep < kReps; ++rep) {
    obs::StepProfiler prof(cells);
    for (int s = 0; s < kStepsPerRep; ++s) prof.step([&] { solver.step(); });
    row.mlups = std::max(row.mlups, prof.mlups());
  }
  return row;
}

template <class S>
void runLadder(std::vector<Row>& rows) {
  rows.push_back(runVariant<S>("fused"));
  rows.push_back(runVariant<S>("esoteric"));
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: bench_kernels [--json <path>]\n";
      return 2;
    }
  }

  std::vector<Row> rows;
  runLadder<double>(rows);
  runLadder<float>(rows);
  runLadder<f16>(rows);
  // Legacy ablations at f64 (§IV-A/C: layout, fusion, push-vs-pull).
  rows.push_back(runVariant<double>("generic"));
  rows.push_back(runVariant<double>("twostep"));
  rows.push_back(runVariant<double>("push"));

  perf::printHeading("Kernel-variant MLUPS ladder — D3Q19 periodic " +
                     std::to_string(kN) + "^3, best of " +
                     std::to_string(kReps) + "x" +
                     std::to_string(kStepsPerRep) + " steps");
  perf::Table t({"variant", "storage", "host MLUPS", "population MiB",
                 "mem vs fused"});
  for (const Row& r : rows)
    t.addRow({r.variant, r.storage, perf::Table::num(r.mlups, 2),
              perf::Table::num(static_cast<double>(r.populationBytes) /
                                   (1024.0 * 1024.0),
                               1),
              perf::Table::num(r.memRatio, 2)});
  t.print();
  std::cout << "fused vectorizes the all-fluid bulk runs; esoteric streams "
               "in place (single lattice, 0.5x population memory) at the "
               "cost of a rotating layout on odd steps.\n";

  if (!jsonPath.empty()) {
    obs::BenchReport report("bench_kernels");
    for (const Row& r : rows) {
      obs::BenchReport::Result& res = report.add(r.variant + "_" + r.storage);
      res.set("mlups", r.mlups);
      res.set("population_bytes", static_cast<double>(r.populationBytes));
      res.set("mem_ratio_vs_fused", r.memRatio);
      res.set("cells", static_cast<double>(kN) * kN * kN);
      res.set("steps", kStepsPerRep);
      res.setText("variant", r.variant);
      res.setText("storage", r.storage);
    }
    report.write(jsonPath);
    std::cout << "\nwrote " << jsonPath << "\n";
  }
  return 0;
}
