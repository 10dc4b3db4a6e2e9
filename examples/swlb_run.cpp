// Config-file driver: the framework front end.  Reads a `key = value`
// case description, runs it, and writes the requested outputs — the
// "holistic solution" entry point of the paper's Fig. 4 framework.
//
// Usage: swlb_run <config-file> [--trace out.json] [--tune]
//                 [--tuning-cache cache.json] [--ranks N] [--max-shrinks K]
//                 [--patches N] [--rebalance-every K] [--backend NAME]
//        swlb_run --demo [--trace out.json] [--tune] [...]
//
// --backend NAME selects the stream/collide backend from the registry
// (DESIGN.md §14: fused, esoteric, swcpe) on every path — single-rank,
// --ranks and --patches.  An unknown name or a capability conflict (e.g.
// an in-place backend under --patches) is an explicit error, never a
// silent fallback.  The flag overrides the tuned plan's pick.
//
// --ranks N runs the case on the N-rank distributed runtime (cavity only
// in this driver) under the resilient driver; --max-shrinks K additionally
// arms elastic shrink-to-fit recovery (DESIGN.md §10), so up to K
// permanently lost ranks degrade the run instead of killing it.  The halo
// schedule is Overlap, or Sequential for a backend that cannot split its
// sweep around the exchange (a whole-block or in-place backend: swcpe,
// esoteric); the driver prints the one it chose.
//
// --patches N switches the distributed path to the patch-aware runtime
// (runtime/patches, DESIGN.md §13) with N patches per rank, assigned by
// fluid-weighted bisection along the Morton curve; --rebalance-every K
// additionally migrates patches every K steps whenever the measured
// per-patch step-time imbalance exceeds the threshold.
//
// --trace records every solver phase (periodic wrap, fused kernel,
// checkpoint writes) on a Chrome trace-event timeline; open the file in
// chrome://tracing or https://ui.perfetto.dev (DESIGN.md §6).
//
// --tune runs the auto-tuner (DESIGN.md §9) for this case's problem shape
// before the run and prints the resulting plan: halo scheduling, the
// collective ring threshold, the CPE LDM chunk width, the storage
// precision advisory and the backend pick.  With --tuning-cache the plan
// is read from / written to the given swlb-tune-v1 JSON file, so a second
// identical run reports a cache hit and skips the search.
//
// Example config:
//   case = cylinder
//   nx = 240
//   ny = 120
//   nz = 12
//   steps = 2000
//   viscosity = 0.01
//   operator = trt
//   inlet_velocity = 0.06
//   vtk = true
//   ppm = true
//   output_prefix = cyl
//   checkpoint_interval = 1000
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>

#include "app/cases.hpp"
#include "io/checkpoint_controller.hpp"
#include "io/ppm.hpp"
#include "io/vtk.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/patches.hpp"
#include "runtime/resilience.hpp"
#include "tune/tuner.hpp"

using namespace swlb;

namespace {
constexpr const char* kUsage =
    "usage: swlb_run <config-file> | --demo [--trace out.json] [--tune] "
    "[--tuning-cache cache.json] [--ranks N] [--max-shrinks K] "
    "[--patches N] [--rebalance-every K] [--backend NAME]\n";

/// Patch-aware distributed front end (DESIGN.md §13): the cavity case on
/// the patch runtime, fluid-weighted assignment, optional measured
/// rebalancing.
int runPatchedCavity(const app::Config& cfg, int ranks, int patchesPerRank,
                     long rebalanceEvery, const std::string& tracePath,
                     const std::string& backendFlag, bool tuneFlag,
                     const std::string& tuneCachePath) {
  using runtime::Comm;
  using runtime::PatchSolver;
  const Int3 n{static_cast<int>(cfg.getInt("nx", 48)),
               static_cast<int>(cfg.getInt("ny", 48)),
               static_cast<int>(cfg.getInt("nz", 48))};
  const long steps = cfg.getInt("steps", 1000);
  const Real uLid = cfg.getReal("lid_velocity", 0.05);
  const CollisionConfig col = app::collision_from_config(cfg);

  // Backend: the tuned pick unless --backend pins one explicitly.
  std::string backend = backendFlag.empty() ? "fused" : backendFlag;
  if (tuneFlag) {
    tune::TuningInput tin;
    tin.lattice = "D3Q19";
    tin.extent = n;
    tin.ranks = ranks;
    tune::TuningCache cache;
    if (!tuneCachePath.empty()) cache = tune::TuningCache::load(tuneCachePath);
    const tune::TuningPlan plan = tune::Tuner().planCached(cache, tin);
    std::cout << "tuning [" << tin.key().toString() << "]: "
              << tune::summary(plan) << "\n";
    if (!tuneCachePath.empty()) cache.save(tuneCachePath);
    if (backendFlag.empty()) {
      tune::apply(plan, backend);
      std::cout << "tuning: backend -> " << backend << "\n";
    }
  }
  std::cout << "case 'cavity' on " << ranks << " ranks, patch mode: "
            << patchesPerRank << " patches/rank"
            << (rebalanceEvery > 0
                    ? ", rebalance every " + std::to_string(rebalanceEvery) +
                          " steps"
                    : "")
            << ", " << n.x << "x" << n.y << "x" << n.z << " cells, " << steps
            << " steps\n";

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  runtime::WorldConfig wcfg;
  if (!tracePath.empty()) wcfg.tracer = &tracer;
  wcfg.metrics = &metrics;
  runtime::World world(ranks, wcfg);
  double mlups = 0, imbalance = 1.0;
  int patchCount = 0;
  world.run([&](Comm& c) {
    PatchSolver<D3Q19>::Config pcfg;
    pcfg.global = n;
    pcfg.collision = col;
    pcfg.patchesPerRank = patchesPerRank;
    pcfg.rebalanceEvery =
        rebalanceEvery > 0 ? static_cast<std::uint64_t>(rebalanceEvery) : 0;
    pcfg.backend = backend;
    PatchSolver<D3Q19> solver(c, pcfg);
    const auto lid = solver.materials().addMovingWall({uLid, 0, 0});
    solver.paintGlobal({{0, 0, n.z - 1}, {n.x, n.y, n.z}}, lid);
    solver.finalizeMask();
    solver.initUniform(1.0, {0, 0, 0});
    const double m = solver.runMeasured(static_cast<std::uint64_t>(steps));
    const double i = solver.measuredImbalance();
    if (c.rank() == 0) {
      mlups = m;
      imbalance = i;
      patchCount = solver.layout().patchCount();
    }
  });
  std::cout << "done (" << mlups << " MLUPS aggregate, " << patchCount
            << " patches)\n"
            << "patch.rebalances = " << metrics.counterValue("patch.rebalances")
            << ", patch.migrations = "
            << metrics.counterValue("patch.migrations")
            << ", measured imbalance = " << imbalance << "\n";
  if (!tracePath.empty()) {
    tracer.writeChromeTrace(tracePath);
    std::cout << "wrote " << tracePath << " (" << tracer.eventCount()
              << " events, " << tracer.threadCount() << " rank timelines)\n";
  }
  if (cfg.getBool("vtk", false) || cfg.getBool("ppm", false))
    std::cout << "note: vtk/ppm outputs are not wired to patch mode; rerun "
                 "without --patches\n";
  return 0;
}

/// Distributed front end: the cavity case on N threads-as-ranks under the
/// resilient driver, with elastic shrink-to-fit recovery armed when
/// maxShrinks > 0.  Outputs are gathered to rank 0.
int runDistributedCavity(const app::Config& cfg, int ranks, int maxShrinks,
                         const std::string& tracePath,
                         const std::string& backendFlag) {
  using runtime::Comm;
  using runtime::DistributedSolver;
  const Int3 n{static_cast<int>(cfg.getInt("nx", 48)),
               static_cast<int>(cfg.getInt("ny", 48)),
               static_cast<int>(cfg.getInt("nz", 48))};
  const long steps = cfg.getInt("steps", 1000);
  const std::string prefix = cfg.getString("output_prefix", "cavity");
  const Real uLid = cfg.getReal("lid_velocity", 0.05);
  const CollisionConfig col = app::collision_from_config(cfg);
  std::cout << "case 'cavity' on " << ranks << " ranks, " << n.x << "x"
            << n.y << "x" << n.z << " cells, " << steps << " steps"
            << (maxShrinks > 0
                    ? ", elastic recovery armed (max-shrinks " +
                          std::to_string(maxShrinks) + ")"
                    : "")
            << "\n";
  // Overlap hides the exchange behind the inner sweep but needs a backend
  // that sweeps sub-ranges of a two-lattice block; DistributedSolver
  // rejects it for any other, so choose Sequential for those here.
  const std::string backend = backendFlag.empty() ? "fused" : backendFlag;
  const BackendInfo* info = find_backend_info(backend);
  const runtime::HaloMode mode =
      info && (!info->caps.subRange || info->caps.inPlaceStreaming)
          ? runtime::HaloMode::Sequential
          : runtime::HaloMode::Overlap;
  std::cout << "halo schedule: " << tune::halo_mode_name(mode) << "\n";

  // procGrid stays automatic so the same factory rebuilds the case at
  // whatever rank count survives a shrink.
  auto build = [&](Comm& c) {
    DistributedSolver<D3Q19>::Config dcfg;
    dcfg.global = n;
    dcfg.collision = col;
    dcfg.mode = mode;
    dcfg.backend = backend;
    auto s = std::make_unique<DistributedSolver<D3Q19>>(c, dcfg);
    const auto lid = s->materials().addMovingWall({uLid, 0, 0});
    s->paintGlobal({{0, 0, n.z - 1}, {n.x, n.y, n.z}}, lid);
    s->finalizeMask();
    s->initUniform(1.0, {0, 0, 0});
    return s;
  };

  const long ckptEvery = cfg.getInt("checkpoint_interval", 0);
  const std::string ckptPrefix =
      (std::filesystem::temp_directory_path() / (prefix + "_elastic")).string();

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  runtime::WorldConfig wcfg;
  if (!tracePath.empty()) wcfg.tracer = &tracer;
  wcfg.metrics = &metrics;
  runtime::World world(ranks, wcfg);
  double sec = 0;
  std::uint64_t shrinks = 0, ranksLost = 0;
  int finalRanks = ranks;
  ScalarField rho;
  VectorField u;
  world.run([&](Comm& c) {
    auto solver = build(c);
    runtime::ResilientRunnerConfig<D3Q19> rcfg;
    rcfg.checkpoint.interval = static_cast<std::uint64_t>(
        ckptEvery > 0 ? ckptEvery : std::max<long>(1, steps / 4));
    rcfg.checkpoint.keep =
        static_cast<int>(cfg.getInt("checkpoint_keep", 2));
    rcfg.fault.maxShrinks = maxShrinks;
    rcfg.rebuild = build;
    runtime::ResilientRunner<D3Q19> runner(*solver, ckptPrefix, rcfg);
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = runner.run(static_cast<std::uint64_t>(steps));
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    runtime::gather_macroscopic(runner.solver(), 0, rho, u);
    runner.checkpoints().clear();
    if (c.rank() == 0) {
      sec = s;
      shrinks = rep.shrinks;
      ranksLost = rep.ranksLost;
      finalRanks = c.size();
    }
  });
  const double mlups = static_cast<double>(n.x) * n.y * n.z *
                       static_cast<double>(steps) / sec / 1e6;
  std::cout << "done in " << sec << " s (" << mlups << " MLUPS aggregate)\n";
  if (maxShrinks > 0) {
    const auto downtime =
        metrics.histogramSummary("resilience.downtime_seconds");
    std::cout << "resilience: " << shrinks << " shrink(s), " << ranksLost
              << " rank(s) lost, finished on " << finalRanks << " ranks\n"
              << "  resilience.shrink.count = "
              << metrics.counterValue("resilience.shrink.count") << "\n"
              << "  resilience.downtime_seconds: count=" << downtime.count
              << " mean=" << downtime.mean << "s\n";
  }
  if (!tracePath.empty()) {
    tracer.writeChromeTrace(tracePath);
    std::cout << "wrote " << tracePath << " (" << tracer.eventCount()
              << " events, " << tracer.threadCount() << " rank timelines)\n";
  }
  if (cfg.getBool("vtk", false)) {
    io::VtkWriter vtk(Grid(n.x, n.y, n.z));
    vtk.addScalar("density", rho);
    vtk.addVector("velocity", u);
    vtk.write(prefix + ".vtk");
    std::cout << "wrote " << prefix << ".vtk\n";
  }
  if (cfg.getBool("ppm", false)) {
    io::write_ppm_velocity_slice(prefix + ".ppm", u, n.z / 2, 1.3 * uLid);
    std::cout << "wrote " << prefix << ".ppm\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string configArg, tracePath, tuneCachePath, backendFlag;
  bool tuneFlag = false;
  int ranks = 1, maxShrinks = 0, patches = 0;
  long rebalanceEvery = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      tracePath = argv[++i];
    } else if (std::strcmp(argv[i], "--tune") == 0) {
      tuneFlag = true;
    } else if (std::strcmp(argv[i], "--tuning-cache") == 0 && i + 1 < argc) {
      tuneCachePath = argv[++i];
      tuneFlag = true;
    } else if (std::strcmp(argv[i], "--ranks") == 0 && i + 1 < argc) {
      ranks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-shrinks") == 0 && i + 1 < argc) {
      maxShrinks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--patches") == 0 && i + 1 < argc) {
      patches = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rebalance-every") == 0 &&
               i + 1 < argc) {
      rebalanceEvery = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      backendFlag = argv[++i];
    } else if (configArg.empty()) {
      configArg = argv[i];
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }
  if (configArg.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  app::Config cfg;
  try {
    if (configArg == "--demo") {
      std::istringstream demo(
          "case = cavity\nnx = 32\nny = 32\nnz = 32\nsteps = 300\n"
          "omega = 1.6\nlid_velocity = 0.05\nppm = true\n");
      cfg = app::Config::parse(demo);
    } else {
      cfg = app::Config::load(configArg);
    }

    if (ranks > 1 || patches > 0) {
      if (cfg.getString("case") != "cavity")
        throw Error(
            "--ranks/--patches: only 'case = cavity' runs distributed in "
            "this driver");
      if (patches > 0)
        return runPatchedCavity(cfg, ranks, patches, rebalanceEvery,
                                tracePath, backendFlag, tuneFlag,
                                tuneCachePath);
      return runDistributedCavity(cfg, ranks, maxShrinks, tracePath,
                                  backendFlag);
    }

    app::Case sim = app::build_case(cfg);
    const long steps = cfg.getInt("steps", 1000);
    const std::string prefix = cfg.getString("output_prefix", sim.name);
    std::cout << "case '" << sim.name << "', "
              << sim.solver->grid().nx << "x" << sim.solver->grid().ny << "x"
              << sim.solver->grid().nz << " cells, " << steps << " steps\n";

    if (tuneFlag) {
      tune::TuningInput tin;
      tin.lattice = "D3Q19";  // app cases run the D3Q19 host solver
      tin.extent = {sim.solver->grid().nx, sim.solver->grid().ny,
                    sim.solver->grid().nz};
      tin.ranks = 1;
      tune::TuningCache cache;
      if (!tuneCachePath.empty()) cache = tune::TuningCache::load(tuneCachePath);
      const bool hadPlan = cache.lookup(tin.key()).has_value();
      const tune::TuningPlan plan = tune::Tuner().planCached(cache, tin);
      std::cout << "tuning [" << tin.key().toString() << "]: "
                << tune::summary(plan)
                << (hadPlan ? " (cache hit)" : " (searched)") << "\n"
                << "tuning advice: " << plan.precisionAdvice << "\n";
      if (!tuneCachePath.empty()) {
        cache.save(tuneCachePath);
        if (!hadPlan) std::cout << "tuning cache written: " << tuneCachePath << "\n";
      }
      // Apply the plan's backend pick (no-op for the default "fused";
      // cached plans produced with backend trials can switch it) unless
      // --backend pinned one explicitly.
      if (backendFlag.empty()) {
        std::string backend = "fused";
        tune::apply(plan, backend);
        if (backend != "fused") {
          sim.solver->setBackend(backend);
          std::cout << "tuning: backend -> " << backend << "\n";
        }
      }
    }
    if (!backendFlag.empty()) {
      sim.solver->setBackend(backendFlag);
      std::cout << "backend: " << backendFlag << "\n";
    }

    const long ckptEvery = cfg.getInt("checkpoint_interval", 0);
    std::unique_ptr<io::CheckpointController> ckpt;
    if (ckptEvery > 0) {
      ckpt = std::make_unique<io::CheckpointController>(
          prefix, io::CheckpointPolicy{static_cast<std::uint64_t>(ckptEvery),
                                       static_cast<int>(cfg.getInt("checkpoint_keep", 2))});
    }

    obs::Tracer tracer;
    const auto t0 = std::chrono::steady_clock::now();
    {
      obs::ScopedBind bind(tracePath.empty() ? nullptr : &tracer, nullptr);
      for (long s = 0; s < steps; ++s) {
        sim.solver->step();
        if (ckpt) ckpt->maybeSave(*sim.solver);
      }
    }
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double mlups = static_cast<double>(sim.solver->grid().interiorVolume()) *
                         static_cast<double>(steps) / sec / 1e6;
    std::cout << "done in " << sec << " s (" << mlups << " MLUPS)\n";

    if (!tracePath.empty()) {
      tracer.writeChromeTrace(tracePath);
      std::cout << "wrote " << tracePath << " (" << tracer.eventCount()
                << " events; open in chrome://tracing or Perfetto)\n";
    }

    ScalarField rho(sim.solver->grid());
    VectorField u(sim.solver->grid());
    sim.solver->computeMacroscopic(rho, u);
    if (cfg.getBool("vtk", false)) {
      io::VtkWriter vtk(sim.solver->grid());
      vtk.addScalar("density", rho);
      vtk.addVector("velocity", u);
      vtk.write(prefix + ".vtk");
      std::cout << "wrote " << prefix << ".vtk\n";
    }
    if (cfg.getBool("ppm", false)) {
      io::write_ppm_velocity_slice(prefix + ".ppm", u,
                                   sim.solver->grid().nz / 2, 1.3 * sim.uRef);
      std::cout << "wrote " << prefix << ".ppm\n";
    }
    if (sim.obstacleId != 0) {
      const Vec3 f = sim.solver->force(sim.obstacleId);
      std::cout << "obstacle force = (" << f.x << ", " << f.y << ", " << f.z
                << ")\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
