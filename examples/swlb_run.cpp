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
// (DESIGN.md §14: fused, esoteric, swcpe) on every path.  An unknown name
// or a capability conflict (e.g. esoteric over an Outflow mask) is an
// explicit error, never a silent fallback.  The flag overrides the tuned
// plan's pick.
//
// --ranks N runs the case on the N-rank distributed engine (cavity only
// in this driver) under the resilient driver; --max-shrinks K additionally
// arms elastic shrink-to-fit recovery (DESIGN.md §10), so up to K
// permanently lost ranks degrade the run instead of killing it.  The halo
// schedule is Overlap (or the tuned plan's under --tune), and Sequential
// for a backend that cannot split its sweep around the exchange (a
// whole-block or in-place backend: swcpe, esoteric; runtime::
// halo_mode_for); the driver prints the one it chose.
//
// --patches N gives every rank N blocks ("patch mode", DESIGN.md §13),
// assigned by fluid-weighted bisection along the Morton curve;
// --rebalance-every K additionally migrates blocks every K steps whenever
// the measured per-block step-time imbalance exceeds the threshold.  Every
// other flag and output works the same with or without it.
//
// --trace records every solver phase (periodic wrap, fused kernel,
// checkpoint writes) on a Chrome trace-event timeline; open the file in
// chrome://tracing or https://ui.perfetto.dev (DESIGN.md §6).
//
// --tune runs the auto-tuner (DESIGN.md §9) for this case's problem shape
// before the run, prints the resulting plan — halo scheduling, the
// backend pick and the storage precision advisory — and applies the
// backend (unless --backend pins one) and, with --ranks, the halo
// schedule.  With --tuning-cache the plan is read from / written to the
// given swlb-tune-v2 JSON file, so a second identical run reports a
// cache hit and skips the search.
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
#include "runtime/resilience.hpp"
#include "tune/tuner.hpp"

using namespace swlb;

namespace {
constexpr const char* kUsage =
    "usage: swlb_run <config-file> | --demo [--trace out.json] [--tune] "
    "[--tuning-cache cache.json] [--ranks N] [--max-shrinks K] "
    "[--patches N] [--rebalance-every K] [--backend NAME]\n";

/// Command-line flags beyond the config file.
struct Flags {
  std::string config, trace, tuneCache, backend;
  bool tune = false;
  int ranks = 1, maxShrinks = 0, patches = 0;
  long rebalanceEvery = 0;
};

/// --tune: the plan for `tin`, from the --tuning-cache file when it holds
/// one and searched (and stored there) otherwise, printed with where it
/// came from.  Unless --backend pinned one, the plan's backend pick goes
/// into `backend`.
tune::TuningPlan tunedPlan(const tune::TuningInput& tin, const Flags& fl,
                           std::string& backend) {
  tune::TuningCache cache;
  if (!fl.tuneCache.empty()) cache = tune::TuningCache::load(fl.tuneCache);
  const bool hadPlan = cache.lookup(tin.key()).has_value();
  const tune::TuningPlan plan = tune::Tuner().planCached(cache, tin);
  std::cout << "tuning [" << tin.key().toString() << "]: "
            << tune::summary(plan)
            << (hadPlan ? " (cache hit)" : " (searched)") << "\n"
            << "tuning advice: " << plan.precisionAdvice << "\n";
  if (!fl.tuneCache.empty()) {
    cache.save(fl.tuneCache);
    if (!hadPlan) std::cout << "tuning cache written: " << fl.tuneCache << "\n";
  }
  if (fl.backend.empty()) {
    tune::apply(plan, backend);
    std::cout << "tuning: backend -> " << backend << "\n";
  }
  return plan;
}

/// Distributed front end: the cavity case on N threads-as-ranks under the
/// resilient driver, with --patches blocks per rank (fluid-weighted
/// bisection along the Morton curve, measured rebalancing every
/// --rebalance-every steps) and elastic shrink-to-fit recovery armed when
/// --max-shrinks > 0.  Outputs are gathered to rank 0.
int runDistributedCavity(const app::Config& cfg, const Flags& fl) {
  using runtime::Comm;
  using runtime::DistributedSolver;
  const Int3 n{static_cast<int>(cfg.getInt("nx", 48)),
               static_cast<int>(cfg.getInt("ny", 48)),
               static_cast<int>(cfg.getInt("nz", 48))};
  const long steps = cfg.getInt("steps", 1000);
  const std::string prefix = cfg.getString("output_prefix", "cavity");
  const Real uLid = cfg.getReal("lid_velocity", 0.05);
  const CollisionConfig col = app::collision_from_config(cfg);

  // Backend and halo schedule: the tuned picks unless --backend pins the
  // backend explicitly.
  std::string backend = fl.backend.empty() ? "fused" : fl.backend;
  runtime::HaloMode mode = runtime::HaloMode::Overlap;
  if (fl.tune) {
    tune::TuningInput tin;
    tin.lattice = "D3Q19";
    tin.extent = n;
    tin.ranks = fl.ranks;
    tune::apply(tunedPlan(tin, fl, backend), mode);
  }
  std::cout << "case 'cavity' on " << fl.ranks << " ranks, "
            << (fl.patches > 0
                    ? "patch mode: " + std::to_string(fl.patches) +
                          " patches/rank" +
                          (fl.rebalanceEvery > 0
                               ? ", rebalance every " +
                                     std::to_string(fl.rebalanceEvery) +
                                     " steps"
                               : "") +
                          ", "
                    : "")
            << n.x << "x" << n.y << "x" << n.z << " cells, " << steps
            << " steps"
            << (fl.maxShrinks > 0
                    ? ", elastic recovery armed (max-shrinks " +
                          std::to_string(fl.maxShrinks) + ")"
                    : "")
            << "\n";
  // Overlap hides the exchange behind the inner sweep but needs a backend
  // that sweeps sub-ranges of a two-lattice block; DistributedSolver
  // rejects it for any other, so choose Sequential for those here.
  mode = runtime::halo_mode_for(backend, mode);
  std::cout << "halo schedule: " << tune::halo_mode_name(mode) << "\n";

  // The patch grid stays automatic so the same factory rebuilds the case
  // at whatever rank count survives a shrink.
  auto build = [&](Comm& c) {
    DistributedSolver<D3Q19>::Config dcfg;
    dcfg.global = n;
    dcfg.collision = col;
    dcfg.mode = mode;
    dcfg.backend = backend;
    dcfg.patchesPerRank = std::max(1, fl.patches);
    dcfg.rebalanceEvery = static_cast<std::uint64_t>(std::max(0L, fl.rebalanceEvery));
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
  if (!fl.trace.empty()) wcfg.tracer = &tracer;
  wcfg.metrics = &metrics;
  runtime::World world(fl.ranks, wcfg);
  double sec = 0, imbalance = 1.0;
  std::uint64_t shrinks = 0, ranksLost = 0;
  int finalRanks = fl.ranks, patchCount = 0;
  ScalarField rho;
  VectorField u;
  world.run([&](Comm& c) {
    auto solver = build(c);
    runtime::ResilientRunnerConfig<D3Q19> rcfg;
    rcfg.checkpoint.interval = static_cast<std::uint64_t>(
        ckptEvery > 0 ? ckptEvery : std::max<long>(1, steps / 4));
    rcfg.checkpoint.keep =
        static_cast<int>(cfg.getInt("checkpoint_keep", 2));
    rcfg.fault.maxShrinks = fl.maxShrinks;
    rcfg.rebuild = build;
    runtime::ResilientRunner<D3Q19> runner(*solver, ckptPrefix, rcfg);
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = runner.run(static_cast<std::uint64_t>(steps));
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double imb = runner.solver().measuredImbalance();
    runtime::gather_macroscopic(runner.solver(), 0, rho, u);
    runner.checkpoints().clear();
    if (c.rank() == 0) {
      sec = s;
      imbalance = imb;
      shrinks = rep.shrinks;
      ranksLost = rep.ranksLost;
      finalRanks = c.size();
      patchCount = runner.solver().layout().patchCount();
    }
  });
  const double mlups = static_cast<double>(n.x) * n.y * n.z *
                       static_cast<double>(steps) / sec / 1e6;
  std::cout << "done in " << sec << " s (" << mlups << " MLUPS aggregate, "
            << patchCount << " patches)\n";
  if (fl.patches > 0)
    std::cout << "patch.rebalances = " << metrics.counterValue("patch.rebalances")
              << ", patch.migrations = "
              << metrics.counterValue("patch.migrations")
              << ", measured imbalance = " << imbalance << "\n";
  if (fl.maxShrinks > 0) {
    const auto downtime =
        metrics.histogramSummary("resilience.downtime_seconds");
    std::cout << "resilience: " << shrinks << " shrink(s), " << ranksLost
              << " rank(s) lost, finished on " << finalRanks << " ranks\n"
              << "  resilience.shrink.count = "
              << metrics.counterValue("resilience.shrink.count") << "\n"
              << "  resilience.downtime_seconds: count=" << downtime.count
              << " mean=" << downtime.mean << "s\n";
  }
  if (!fl.trace.empty()) {
    tracer.writeChromeTrace(fl.trace);
    std::cout << "wrote " << fl.trace << " (" << tracer.eventCount()
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
  Flags fl;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      fl.trace = argv[++i];
    } else if (std::strcmp(argv[i], "--tune") == 0) {
      fl.tune = true;
    } else if (std::strcmp(argv[i], "--tuning-cache") == 0 && i + 1 < argc) {
      fl.tuneCache = argv[++i];
      fl.tune = true;
    } else if (std::strcmp(argv[i], "--ranks") == 0 && i + 1 < argc) {
      fl.ranks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-shrinks") == 0 && i + 1 < argc) {
      fl.maxShrinks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--patches") == 0 && i + 1 < argc) {
      fl.patches = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rebalance-every") == 0 &&
               i + 1 < argc) {
      fl.rebalanceEvery = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      fl.backend = argv[++i];
    } else if (fl.config.empty()) {
      fl.config = argv[i];
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }
  if (fl.config.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  app::Config cfg;
  try {
    if (fl.config == "--demo") {
      std::istringstream demo(
          "case = cavity\nnx = 32\nny = 32\nnz = 32\nsteps = 300\n"
          "omega = 1.6\nlid_velocity = 0.05\nppm = true\n");
      cfg = app::Config::parse(demo);
    } else {
      cfg = app::Config::load(fl.config);
    }

    if (fl.ranks > 1 || fl.patches > 0) {
      if (cfg.getString("case") != "cavity")
        throw Error(
            "--ranks/--patches: only 'case = cavity' runs distributed in "
            "this driver");
      return runDistributedCavity(cfg, fl);
    }

    app::Case sim = app::build_case(cfg);
    const long steps = cfg.getInt("steps", 1000);
    const std::string prefix = cfg.getString("output_prefix", sim.name);
    std::cout << "case '" << sim.name << "', "
              << sim.solver->grid().nx << "x" << sim.solver->grid().ny << "x"
              << sim.solver->grid().nz << " cells, " << steps << " steps\n";

    // Backend: the tuned pick unless --backend pins one explicitly.
    std::string backend = fl.backend.empty() ? "fused" : fl.backend;
    if (fl.tune) {
      tune::TuningInput tin;
      tin.lattice = "D3Q19";  // app cases run the D3Q19 host solver
      tin.extent = {sim.solver->grid().nx, sim.solver->grid().ny,
                    sim.solver->grid().nz};
      tunedPlan(tin, fl, backend);
    }
    if (backend != sim.solver->backendName()) sim.solver->setBackend(backend);
    if (!fl.backend.empty()) std::cout << "backend: " << fl.backend << "\n";

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
      obs::ScopedBind bind(fl.trace.empty() ? nullptr : &tracer, nullptr);
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

    if (!fl.trace.empty()) {
      tracer.writeChromeTrace(fl.trace);
      std::cout << "wrote " << fl.trace << " (" << tracer.eventCount()
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
