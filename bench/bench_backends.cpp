// Backend-portability ladder — every backend registered for D3Q19/f64
// run on the same 32^3 periodic block, straight out of the registry
// (DESIGN.md §14): adding a backend adds a row here with no bench edits.
//
// Rows report best-of-3 MLUPS, the *actually allocated* population bytes
// (so in-place backends' memory claims are measured, not asserted), the
// memory ratio against the two-lattice fused baseline, and the thread
// count the backend ran with.  Every backend is asked for one lane per
// hardware core; the executor slices caps.subRange backends into that
// many z-slabs on one persistent team, and push and swcpe run their one
// whole-block call on one lane.
// The swcpe emulator models a 64-CPE core group in scalar host code, so
// its MLUPS row is an emulator throughput, not a Sunway projection —
// perf/ladder.cpp owns those.
//
// With --json <path> the rows are serialized as a swlb-bench-v1
// BenchReport (backend_<name> results) — the writer behind the
// BENCH_backends.json seed and the CI smoke that checks multi-lane fused
// is no slower than single-thread fused whenever the host has >1 core
// (host_cores is in every row so the gate is recorded with the data).
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/precision.hpp"
#include "core/solver.hpp"
#include "obs/bench_report.hpp"
#include "obs/step_profiler.hpp"
#include "perf/report.hpp"

using namespace swlb;

namespace {

constexpr int kN = 32;
constexpr int kStepsPerRep = 20;  // even: in-place reps end in natural phase
constexpr int kReps = 3;

struct Row {
  std::string backend;
  double mlups = 0;                 ///< best-of-kReps
  std::size_t populationBytes = 0;  ///< actually allocated by the solver
  double memRatio = 0;              ///< vs two-lattice fused
  int threads = 1;                  ///< host threads the backend ran with
};

Row runBackend(const std::string& name, int lanes) {
  const BackendInfo& info = *find_backend_info(name);
  CollisionConfig cfg;
  cfg.omega = 1.6;
  Solver<D3Q19, double> solver(Grid(kN, kN, kN), cfg,
                               Periodicity{true, true, true});
  solver.setBackend(name);
  Row row;
  row.backend = name;
  row.threads = info.caps.subRange ? lanes : 1;
  solver.setHostThreads(lanes);
  solver.finalizeMask();
  solver.initField([](int x, int y, int z, Real& rho, Vec3& u) {
    rho = 1.0 + 0.01 * ((x + 2 * y + 3 * z) % 7 - 3) / 3.0;
    u = {0.02, 0.01, -0.01};
  });

  const double cells = static_cast<double>(solver.grid().interiorVolume());
  // The emulator sweeps 64 virtual CPEs per step in scalar host code —
  // two orders slower than the native kernels; trim its reps to keep the
  // whole ladder interactive.
  const int steps =
      info.hints.relativeRate < 0.1 ? 2 : kStepsPerRep;
  const int reps = info.hints.relativeRate < 0.1 ? 1 : kReps;
  solver.run(steps);  // warmup (touch pages, warm caches)
  row.populationBytes = solver.populationBytes();
  const std::size_t oneLattice =
      static_cast<std::size_t>(solver.f().size()) * sizeof(double);
  row.memRatio = static_cast<double>(row.populationBytes) /
                 static_cast<double>(2 * oneLattice);
  for (int rep = 0; rep < reps; ++rep) {
    obs::StepProfiler prof(cells);
    for (int s = 0; s < steps; ++s) prof.step([&] { solver.step(); });
    row.mlups = std::max(row.mlups, prof.mlups());
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: bench_backends [--json <path>]\n";
      return 2;
    }
  }

  const int hostCores =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<Row> rows;
  // Single-thread fused first: the reference row every ratio reads
  // against (the registry also lists "fused", measured again below at
  // hostCores lanes like every other sub-range backend).
  Row fused1 = runBackend("fused", 1);
  fused1.backend = "fused@1";
  rows.push_back(fused1);
  for (const std::string& name : backend_names<D3Q19, double>())
    rows.push_back(runBackend(name, hostCores));

  perf::printHeading("Registered-backend MLUPS ladder — D3Q19 f64 periodic " +
                     std::to_string(kN) + "^3, host cores: " +
                     std::to_string(hostCores));
  perf::Table t({"backend", "threads", "host MLUPS", "population MiB",
                 "mem vs fused"});
  for (const Row& r : rows)
    t.addRow({r.backend, std::to_string(r.threads),
              perf::Table::num(r.mlups, 2),
              perf::Table::num(static_cast<double>(r.populationBytes) /
                                   (1024.0 * 1024.0),
                               1),
              perf::Table::num(r.memRatio, 2)});
  t.print();
  std::cout << "fused-vs-fused@1 is the host-thread speedup (expect >1 "
               "only on multi-core hosts); swcpe is the CPE emulator, not "
               "a Sunway projection.\n";

  if (!jsonPath.empty()) {
    obs::BenchReport report("bench_backends");
    for (const Row& r : rows) {
      std::string key = r.backend;
      std::replace(key.begin(), key.end(), '@', '_');
      obs::BenchReport::Result& res = report.add("backend_" + key);
      res.set("mlups", r.mlups);
      res.set("population_bytes", static_cast<double>(r.populationBytes));
      res.set("mem_ratio_vs_fused", r.memRatio);
      res.set("threads", r.threads);
      res.set("host_cores", hostCores);
      res.set("cells", static_cast<double>(kN) * kN * kN);
      res.setText("backend", r.backend);
    }
    report.write(jsonPath);
    std::cout << "\nwrote " << jsonPath << "\n";
  }
  return 0;
}
