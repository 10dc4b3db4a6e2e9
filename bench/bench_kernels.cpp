// Kernel MLUPS ladder — every registered backend plus the ablations
// behind the paper's design choices (§IV-A/C), all on one 48^3 periodic
// D3Q19 block:
//
//   * every backend in the registry (DESIGN.md §14: fused, esoteric,
//     swcpe) at f64/f32/f16 population storage on one lane
//     (`<name>_<storage>`); adding a backend adds its rows here with no
//     bench edits;
//   * the caps.subRange backends again at f64 on one lane per hardware
//     core (`<name>_f64_mt`, the same solver stepped on more lanes): the
//     host-thread speedup;
//   * the ablation kernels of core/kernels.hpp — generic pull, two-step,
//     push — at f64, stepped as plain functions through ablation_step on
//     their own A-B pair (`generic_f64`, `twostep_f64`, `push_f64`).
//
// The rows of one storage type are timed interleaved: kReps rounds, each
// running one rep of every row in turn, so rows that a CI gate compares
// (esoteric_f64 vs generic_f64, fused_f64_mt vs fused_f64) see the same
// host load.  Rep k of every row ran in round k, and the gates take the
// median over the rounds of the two rows' per-round ratio.  A timed
// warm-up sizes each row's rep: a row slower than kRepSeconds per rep
// (the swcpe emulator models a 64-CPE core group in scalar host code)
// runs proportionally fewer steps.  swcpe's rows are an emulator
// throughput, not a Sunway projection (perf/ladder.cpp owns those).
//
// Rows report best-of-reps and median MLUPS (and every rep's), the
// *actually allocated* population bytes (so the esoteric 0.5x memory
// claim is measured, not asserted), the memory ratio against the
// two-lattice fused baseline at the same storage width, and the lanes
// the row ran on.  With --json
// <path> the rows are serialized as a swlb-bench-v1 BenchReport — the
// writer behind the BENCH_kernels.json seed and the CI smoke that checks
// esoteric's speed and memory halving and the multi-lane speedup
// (host_cores is in every row so that gate is recorded with the data).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/precision.hpp"
#include "core/solver.hpp"
#include "obs/bench_report.hpp"
#include "obs/step_profiler.hpp"
#include "perf/report.hpp"

using namespace swlb;

namespace {

constexpr int kN = 48;
constexpr double kCells = static_cast<double>(kN) * kN * kN;
constexpr int kStepsPerRep = 20;  // even: esoteric reps end in natural phase
constexpr int kReps = 5;
constexpr double kRepSeconds = 0.5;  // slower rows run fewer steps per rep
constexpr Periodicity kPeriodic{true, true, true};

struct Row {
  std::string variant;
  std::string storage;
  std::string suffix;               ///< "" or "_mt" (one lane per core)
  int threads = 1;                  ///< host lanes the row ran on
  std::size_t populationBytes = 0;  ///< actually allocated
  double memRatio = 0;              ///< vs two-lattice fused, same storage
  std::function<void()> step;       ///< one update; released once timed
  int steps = kStepsPerRep;         ///< per rep, sized by the warm-up
  std::vector<double> mlups;        ///< one per rep

  double best() const { return *std::max_element(mlups.begin(), mlups.end()); }
  double median() const {
    std::vector<double> v = mlups;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
};

template <class S>
Solver<D3Q19, S> makeSolver(const std::string& backend) {
  CollisionConfig cfg;
  cfg.omega = 1.6;
  Solver<D3Q19, S> solver(Grid(kN, kN, kN), cfg, kPeriodic);
  solver.setBackend(backend);
  solver.finalizeMask();
  solver.initField([](int x, int y, int z, Real& rho, Vec3& u) {
    rho = 1.0 + 0.01 * ((x + 2 * y + 3 * z) % 7 - 3) / 3.0;
    u = {0.02, 0.01, -0.01};
  });
  return solver;
}

/// The rows of registered backend `name` at storage S: one lane and, for
/// a caps.subRange backend at f64, one lane per core on the same solver.
template <class S>
void addBackendRows(std::vector<Row>& rows, const std::string& name,
                    int hostCores) {
  auto solver = std::make_shared<Solver<D3Q19, S>>(makeSolver<S>(name));
  Row row;
  row.variant = name;
  row.storage = StorageTraits<S>::name();
  row.populationBytes = solver->populationBytes();
  row.memRatio = static_cast<double>(row.populationBytes) /
                 static_cast<double>(2 * solver->f().bytes());
  row.step = [solver] {
    solver->setHostThreads(1);
    solver->step();
  };
  rows.push_back(row);
  if (std::is_same_v<S, double> && find_backend_info(name)->caps.subRange) {
    row.suffix = "_mt";
    row.threads = hostCores;
    row.step = [solver, hostCores] {
      solver->setHostThreads(hostCores);
      solver->step();
    };
    rows.push_back(row);
  }
}

/// The row of ablation kernel `name` at f64 on its own A-B pair, seeded
/// from a fused solver.
Row ablationRow(const std::string& name) {
  struct Pair {
    MaskField mask;
    MaterialTable mats;
    CollisionConfig cfg;
    PopulationField f[2];
    int cur = 0;
  };
  const Solver<D3Q19, double> seed = makeSolver<double>("fused");
  auto p = std::make_shared<Pair>(Pair{seed.mask(), seed.materials(),
                                       seed.collision(),
                                       {seed.f(), seed.f()}});
  Row row;
  row.variant = name;
  row.storage = "f64";
  row.populationBytes = p->f[0].bytes() + p->f[1].bytes();
  row.memRatio = 1;
  row.step = [p, name] {
    ablation_step<D3Q19>(name, p->f[p->cur], p->f[1 - p->cur], p->mask,
                         p->mats, p->cfg, kPeriodic);
    p->cur = 1 - p->cur;
  };
  return row;
}

/// Warm every row up (kStepsPerRep timed steps, which size its rep), then
/// run kReps rounds of one rep per row in turn, and release the rows'
/// simulations.
void timeInterleaved(std::vector<Row>& rows) {
  for (Row& r : rows) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < kStepsPerRep; ++s) r.step();
    const double sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    const int fit = static_cast<int>(
        std::min<double>(kStepsPerRep, kStepsPerRep * kRepSeconds / sec));
    r.steps = std::max(2, fit / 2 * 2);
  }
  for (int rep = 0; rep < kReps; ++rep)
    for (Row& r : rows) {
      obs::StepProfiler prof(kCells);
      for (int s = 0; s < r.steps; ++s) prof.step(r.step);
      r.mlups.push_back(prof.mlups());
    }
  for (Row& r : rows) r.step = nullptr;
}

/// Every row at storage S — plus the ablations at f64 — timed together.
template <class S>
void addStorageRound(std::vector<Row>& out, int hostCores) {
  std::vector<Row> rows;
  for (const std::string& name : backend_names<D3Q19, S>())
    addBackendRows<S>(rows, name, hostCores);
  if constexpr (std::is_same_v<S, double>)
    for (const char* name : kAblationKernels) rows.push_back(ablationRow(name));
  timeInterleaved(rows);
  out.insert(out.end(), rows.begin(), rows.end());
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

  const int hostCores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<Row> rows;
  addStorageRound<double>(rows, hostCores);
  addStorageRound<float>(rows, hostCores);
  addStorageRound<f16>(rows, hostCores);

  perf::printHeading("Kernel MLUPS ladder — D3Q19 periodic " +
                     std::to_string(kN) + "^3, " + std::to_string(kReps) +
                     " interleaved reps of up to " +
                     std::to_string(kStepsPerRep) +
                     " steps, host cores: " + std::to_string(hostCores));
  perf::Table t({"variant", "storage", "threads", "steps/rep", "best MLUPS",
                 "median MLUPS", "population MiB", "mem vs fused"});
  for (const Row& r : rows)
    t.addRow({r.variant, r.storage, std::to_string(r.threads),
              std::to_string(r.steps), perf::Table::num(r.best(), 2),
              perf::Table::num(r.median(), 2),
              perf::Table::num(static_cast<double>(r.populationBytes) /
                                   (1024.0 * 1024.0),
                               1),
              perf::Table::num(r.memRatio, 2)});
  t.print();
  std::cout << "fused vectorizes the all-fluid bulk runs; esoteric streams "
               "in place (single lattice, 0.5x population memory) at the "
               "cost of a rotating layout on odd steps; swcpe is the CPE "
               "emulator, not a Sunway projection.\n";

  if (!jsonPath.empty()) {
    obs::BenchReport report("bench_kernels");
    for (const Row& r : rows) {
      obs::BenchReport::Result& res =
          report.add(r.variant + "_" + r.storage + r.suffix);
      res.set("mlups", r.best());
      res.set("mlups_median", r.median());
      res.set("population_bytes", static_cast<double>(r.populationBytes));
      res.set("mem_ratio_vs_fused", r.memRatio);
      res.set("threads", r.threads);
      res.set("host_cores", hostCores);
      res.set("cells", kCells);
      res.set("steps", r.steps);
      std::string reps;
      for (const double m : r.mlups)
        reps += (reps.empty() ? "" : " ") + perf::Table::num(m, 2);
      res.setText("mlups_reps", reps);
      res.setText("variant", r.variant);
      res.setText("storage", r.storage);
    }
    report.write(jsonPath);
    std::cout << "\nwrote " << jsonPath << "\n";
  }
  return 0;
}
