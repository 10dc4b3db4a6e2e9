// Distributed run + checkpoint/restart: the runtime and I/O layers the
// paper's framework provides for long, fault-tolerant campaigns (§IV-B).
//
//   1. run a Taylor-Green vortex on 4 ranks with the on-the-fly halo
//      exchange (Fig. 6(2)) and compare against 1 rank bit-for-bit;
//   2. checkpoint a single-block solver mid-run, "crash", restore, and
//      verify the restart is bit-identical to an uninterrupted run;
//   3. resilient 4-rank run: a rank is killed mid-campaign by the fault
//      plan, the survivors vote, roll back to the newest complete
//      distributed checkpoint generation, and finish bit-identical to the
//      fault-free run.
//
//   4. (with --max-shrinks >= 1) elastic recovery: a rank is retired
//      permanently, the survivors probe, shrink the communicator onto a
//      fresh 3-rank decomposition, splice-restore the newest generation
//      and finish — still bit-identical to the fault-free run — printing
//      the resilience.shrink.* counters and the downtime histogram.
//
// Usage: distributed_restart [N] [steps] [--trace out.json] [--tune]
//                            [--tuning-cache cache.json] [--max-shrinks K]
//        (default 32^2, 200 steps; --trace exports the 4-rank run of
//        part 1 as Chrome-trace JSON for chrome://tracing / Perfetto;
//        --tune asks the auto-tuner (DESIGN.md §9) for the 4-rank halo
//        scheduling instead of hardcoding Overlap — results stay
//        bit-identical either way, which part 1 then verifies)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <numbers>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/resilience.hpp"
#include "tune/tuner.hpp"

#include <memory>

using namespace swlb;
using runtime::Comm;
using runtime::DistributedSolver;
using runtime::HaloMode;
using runtime::World;

namespace {

void initTgv(int n, Real u0, int x, int y, Real& rho, Vec3& u) {
  const Real k = 2 * std::numbers::pi_v<Real> / n;
  rho = 1.0;
  u = {-u0 * std::cos(k * (x + Real(0.5))) * std::sin(k * (y + Real(0.5))),
       u0 * std::sin(k * (x + Real(0.5))) * std::cos(k * (y + Real(0.5))), 0};
}

}  // namespace

int main(int argc, char** argv) {
  std::string tracePath, tuneCachePath;
  bool tuneFlag = false;
  int maxShrinks = 0;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      tracePath = argv[++i];
    } else if (std::strcmp(argv[i], "--tune") == 0) {
      tuneFlag = true;
    } else if (std::strcmp(argv[i], "--tuning-cache") == 0 && i + 1 < argc) {
      tuneCachePath = argv[++i];
      tuneFlag = true;
    } else if (std::strcmp(argv[i], "--max-shrinks") == 0 && i + 1 < argc) {
      maxShrinks = std::atoi(argv[++i]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int n = positional.size() > 0 ? std::atoi(positional[0]) : 32;
  const int steps = positional.size() > 1 ? std::atoi(positional[1]) : 200;
  const Real u0 = 0.02;

  CollisionConfig collision;
  collision.omega = omega_from_tau(tau_from_viscosity(0.02));

  // Halo scheduling of the 4-rank runs: hardcoded Overlap by default, the
  // auto-tuner's pick under --tune.  Both schemes produce bit-identical
  // populations, so the comparisons below hold either way.
  HaloMode mode4 = HaloMode::Overlap;
  if (tuneFlag) {
    tune::TuningInput tin;
    tin.lattice = "D2Q9";
    tin.extent = {n, n, 1};
    tin.ranks = 4;
    tune::TuningCache cache;
    if (!tuneCachePath.empty()) cache = tune::TuningCache::load(tuneCachePath);
    const bool hadPlan = cache.lookup(tin.key()).has_value();
    const tune::TuningPlan plan = tune::Tuner().planCached(cache, tin);
    tune::apply(plan, mode4);
    std::cout << "tuning [" << tin.key().toString() << "]: "
              << tune::summary(plan) << (hadPlan ? " (cache hit)" : " (searched)")
              << "\n";
    if (!tuneCachePath.empty()) cache.save(tuneCachePath);
  }

  // ---- part 1: 4 ranks vs 1 rank, overlapped halo exchange -------------
  PopulationField serial, parallel4;
  {
    World world(1);
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9>::Config cfg;
      cfg.global = {n, n, 1};
      cfg.collision = collision;
      cfg.periodic = {true, true, true};
      cfg.patchGrid = {1, 1, 1};
      DistributedSolver<D2Q9> solver(c, cfg);
      solver.finalizeMask();
      solver.initField([&](int x, int y, int, Real& rho, Vec3& u) {
        initTgv(n, u0, x, y, rho, u);
      });
      solver.run(steps);
      PopulationField g = solver.gatherPopulations(0);
      if (c.rank() == 0) serial = std::move(g);  // only root holds data
    });
  }
  double mlups4 = 0;
  obs::Tracer tracer;
  {
    runtime::WorldConfig wcfg4;
    if (!tracePath.empty()) wcfg4.tracer = &tracer;
    World world(4, wcfg4);
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9>::Config cfg;
      cfg.global = {n, n, 1};
      cfg.collision = collision;
      cfg.periodic = {true, true, true};
      cfg.patchGrid = {2, 2, 1};
      cfg.mode = mode4;
      DistributedSolver<D2Q9> solver(c, cfg);
      solver.finalizeMask();
      solver.initField([&](int x, int y, int, Real& rho, Vec3& u) {
        initTgv(n, u0, ((x % n) + n) % n, ((y % n) + n) % n, rho, u);
      });
      const double m = solver.runMeasured(steps);
      if (c.rank() == 0) mlups4 = m;
      PopulationField g = solver.gatherPopulations(0);
      if (c.rank() == 0) parallel4 = std::move(g);
    });
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < serial.size(); ++i)
    if (serial.data()[i] != parallel4.data()[i]) ++mismatches;
  std::cout << "4-rank overlapped run vs serial: " << mismatches
            << " mismatching values (expect 0), " << mlups4 << " MLUPS\n";
  if (!tracePath.empty()) {
    tracer.writeChromeTrace(tracePath);
    std::cout << "wrote " << tracePath << " (" << tracer.eventCount()
              << " events, " << tracer.threadCount()
              << " rank timelines; open in chrome://tracing or Perfetto)\n";
  }

  // ---- part 2: checkpoint, crash, restart ------------------------------
  auto makeSolver = [&] {
    Solver<D2Q9> s(Grid(n, n, 1), collision, Periodicity{true, true, true});
    s.finalizeMask();
    s.initField([&](int x, int y, int, Real& rho, Vec3& u) {
      initTgv(n, u0, ((x % n) + n) % n, ((y % n) + n) % n, rho, u);
    });
    return s;
  };

  Solver<D2Q9> uninterrupted = makeSolver();
  uninterrupted.run(steps);

  Solver<D2Q9> beforeCrash = makeSolver();
  beforeCrash.run(steps / 2);
  io::save_checkpoint("tgv.ckpt", beforeCrash);
  std::cout << "Checkpointed at step " << beforeCrash.stepsDone() << " ("
            << io::read_checkpoint_meta("tgv.ckpt").interior.x << "^2 cells)\n";

  Solver<D2Q9> restarted = makeSolver();  // fresh process after the "crash"
  io::load_checkpoint("tgv.ckpt", restarted);
  restarted.run(steps - steps / 2);

  std::size_t restartMismatches = 0;
  for (std::size_t i = 0; i < uninterrupted.f().size(); ++i)
    if (uninterrupted.f().data()[i] != restarted.f().data()[i])
      ++restartMismatches;
  std::cout << "Restarted run vs uninterrupted: " << restartMismatches
            << " mismatching values (expect 0)\n";
  std::remove("tgv.ckpt");

  // ---- part 3: kill a rank mid-run, roll back, finish bit-identical ----
  // Checkpoint generations land in the working directory, next to
  // tgv.ckpt, so runs in separate directories never share a file.
  namespace fs = std::filesystem;
  const std::string ckptPrefix =
      (fs::current_path() / "tgv_resilient").string();
  const int interval = std::max(5, steps / 8);
  const int killAt = steps / 2 + interval / 2;  // between two generations

  runtime::WorldConfig wcfg;
  wcfg.faults.killRank = 2;
  wcfg.faults.killAtStep = killAt;
  World world(4, wcfg);
  PopulationField resilient;
  std::uint64_t recoveries = 0, restoredStep = 0;
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9>::Config cfg;
    cfg.global = {n, n, 1};
    cfg.collision = collision;
    cfg.periodic = {true, true, true};
    cfg.patchGrid = {2, 2, 1};
    cfg.mode = mode4;
    DistributedSolver<D2Q9> solver(c, cfg);
    solver.finalizeMask();
    solver.initField([&](int x, int y, int, Real& rho, Vec3& u) {
      initTgv(n, u0, ((x % n) + n) % n, ((y % n) + n) % n, rho, u);
    });
    runtime::ResilientRunnerConfig<D2Q9> rcfg;
    rcfg.checkpoint.interval = static_cast<std::uint64_t>(interval);
    rcfg.checkpoint.keep = 2;
    rcfg.fault.recvTimeout = 0.25;  // survivors time out instead of hanging
    runtime::ResilientRunner<D2Q9> runner(solver, ckptPrefix, rcfg);
    const auto rep = runner.run(steps);
    PopulationField g = solver.gatherPopulations(0);
    if (c.rank() == 0) {
      resilient = std::move(g);
      recoveries = rep.recoveries;
      restoredStep = rep.lastRestoredStep;
    }
  });
  std::size_t resilientMismatches = 0;
  for (std::size_t i = 0; i < parallel4.size(); ++i)
    if (parallel4.data()[i] != resilient.data()[i]) ++resilientMismatches;
  std::cout << "Resilient run: rank 2 killed at step " << killAt << ", "
            << recoveries << " rollback(s) to step " << restoredStep << ", "
            << resilientMismatches
            << " mismatching values vs fault-free run (expect 0)\n";
  {
    std::error_code ec;
    const fs::path dir = fs::path(ckptPrefix).parent_path();
    for (const auto& entry : fs::directory_iterator(dir, ec))
      if (entry.path().filename().string().rfind("tgv_resilient", 0) == 0)
        fs::remove(entry.path(), ec);
  }

  // ---- part 4: retire a rank permanently, shrink to fit, continue ------
  std::size_t elasticMismatches = 0;
  if (maxShrinks > 0) {
    const std::string elasticPrefix =
        (fs::current_path() / "tgv_elastic").string();
    obs::MetricsRegistry metrics;
    runtime::WorldConfig wcfg2;
    wcfg2.faults.killRank = 2;
    wcfg2.faults.killAtStep = killAt;
    wcfg2.faults.killPermanent = true;  // node retired: no respawn
    wcfg2.metrics = &metrics;
    if (!tracePath.empty()) wcfg2.tracer = &tracer;
    World elasticWorld(4, wcfg2);
    PopulationField elastic;
    std::uint64_t shrinks = 0, ranksLost = 0, elasticRestored = 0;
    int finalRanks = 0;
    elasticWorld.run([&](Comm& c) {
      // The decomposition must adapt to whatever rank count survives, so
      // the factory leaves patchGrid on automatic.
      auto build = [&](Comm& cc) {
        DistributedSolver<D2Q9>::Config cfg;
        cfg.global = {n, n, 1};
        cfg.collision = collision;
        cfg.periodic = {true, true, true};
        auto s = std::make_unique<DistributedSolver<D2Q9>>(cc, cfg);
        s->finalizeMask();
        s->initField([&](int x, int y, int, Real& rho, Vec3& u) {
          initTgv(n, u0, ((x % n) + n) % n, ((y % n) + n) % n, rho, u);
        });
        return s;
      };
      auto solver = build(c);
      runtime::ResilientRunnerConfig<D2Q9> rcfg;
      rcfg.checkpoint.interval = static_cast<std::uint64_t>(interval);
      rcfg.checkpoint.keep = 2;
      rcfg.fault.recvTimeout = 0.25;
      rcfg.fault.maxShrinks = maxShrinks;
      rcfg.rebuild = build;
      runtime::ResilientRunner<D2Q9> runner(*solver, elasticPrefix, rcfg);
      // Rank 2's thread unwinds here; the survivors shrink around it.
      const auto rep = runner.run(steps);
      PopulationField g = runner.solver().gatherPopulations(0);
      if (c.rank() == 0) {
        elastic = std::move(g);
        shrinks = rep.shrinks;
        ranksLost = rep.ranksLost;
        elasticRestored = rep.lastRestoredStep;
        finalRanks = c.size();
      }
    });
    for (std::size_t i = 0; i < parallel4.size(); ++i)
      if (parallel4.data()[i] != elastic.data()[i]) ++elasticMismatches;
    std::cout << "Elastic run: rank 2 retired permanently at step " << killAt
              << ", " << shrinks << " shrink(s) lost " << ranksLost
              << " rank(s), finished on " << finalRanks
              << " ranks from step " << elasticRestored << ", "
              << elasticMismatches
              << " mismatching values vs fault-free run (expect 0)\n";
    const auto downtime = metrics.histogramSummary("resilience.downtime_seconds");
    std::cout << "  resilience.shrink.count = "
              << metrics.counterValue("resilience.shrink.count") << "\n"
              << "  resilience.shrink.ranks_lost = "
              << metrics.counterValue("resilience.shrink.ranks_lost") << "\n"
              << "  resilience.downtime_seconds: count=" << downtime.count
              << " mean=" << downtime.mean << "s max=" << downtime.max
              << "s\n";
    if (!tracePath.empty()) {
      tracer.writeChromeTrace(tracePath);  // now includes the shrink scopes
      std::cout << "rewrote " << tracePath << " with the elastic-recovery "
                << "timeline (" << tracer.eventCount() << " events)\n";
    }
    if (shrinks == 0) elasticMismatches = 1;  // the ladder must have fired
    {
      std::error_code ec;
      const fs::path dir = fs::path(elasticPrefix).parent_path();
      for (const auto& entry : fs::directory_iterator(dir, ec))
        if (entry.path().filename().string().rfind("tgv_elastic", 0) == 0)
          fs::remove(entry.path(), ec);
    }
  }

  return mismatches == 0 && restartMismatches == 0 &&
                 resilientMismatches == 0 && elasticMismatches == 0
             ? 0
             : 1;
}
