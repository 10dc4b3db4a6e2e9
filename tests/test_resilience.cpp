// Fault-tolerant runtime: distributed checkpoint generations, failure
// detection (injected kill, lost message, NaN guard) and rollback recovery
// that is bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numbers>

#include "obs/metrics.hpp"
#include "runtime/resilience.hpp"

namespace swlb::runtime {
namespace {

namespace fs = std::filesystem;

std::string tmpPrefix(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

/// Remove every file the controller may have produced under `prefix`.
void removeAll(const std::string& prefix) {
  std::error_code ec;
  const fs::path full(prefix);
  const fs::path dir = full.has_parent_path() ? full.parent_path() : ".";
  const std::string base = full.filename().string();
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(base, 0) == 0)
      fs::remove(entry.path(), ec);
  }
}

DistributedSolver<D2Q9>::Config tgvConfig(int n) {
  DistributedSolver<D2Q9>::Config cfg;
  cfg.global = {n, n, 1};
  cfg.collision.omega = 1.3;
  cfg.periodic = {true, true, true};
  cfg.patchGrid = {2, 2, 1};
  return cfg;
}

void initTgv(DistributedSolver<D2Q9>& solver, int n) {
  const Real k = 2 * std::numbers::pi_v<Real> / n;
  solver.finalizeMask();
  solver.initField([&](int x, int y, int, Real& rho, Vec3& u) {
    rho = 1.0;
    u = {-0.02 * std::cos(k * (x + Real(0.5))) * std::sin(k * (y + Real(0.5))),
         0.02 * std::sin(k * (x + Real(0.5))) * std::cos(k * (y + Real(0.5))), 0};
  });
}

/// Fault-free reference populations after `steps` steps on 4 ranks.
PopulationField referenceRun(int n, int steps) {
  PopulationField out;
  World world(4);
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(n));
    initTgv(solver, n);
    solver.run(steps);
    PopulationField g = solver.gatherPopulations(0);
    if (c.rank() == 0) out = std::move(g);
  });
  return out;
}

/// Lid-driven cavity on whatever communicator it is handed: the
/// decomposition adapts to the live rank count (procGrid auto), which is
/// what shrink-to-fit recovery rebuilds after a permanent rank loss.
template <class S = Real>
std::unique_ptr<DistributedSolver<D2Q9, S>> buildCavity(Comm& c, int n) {
  typename DistributedSolver<D2Q9, S>::Config cfg;
  cfg.global = {n, n, 1};
  cfg.collision.omega = 1.3;
  cfg.periodic = {false, false, true};
  auto s = std::make_unique<DistributedSolver<D2Q9, S>>(c, cfg);
  const std::uint8_t lid = s->materials().addMovingWall({0.05, 0, 0});
  s->paintGlobal({{0, n - 1, 0}, {n, n, 1}}, lid);
  s->finalizeMask();
  s->initUniform(1.0, {0, 0, 0});
  return s;
}

void expectBitIdentical(const PopulationField& a, const PopulationField& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a.data()[i], b.data()[i]);
}

TEST(Resilience, InjectedRankKillRollsBackAndResumesBitIdentical) {
  // Rank 2 dies at step 37.  fused (interval 10) rolls back to the step-30
  // generation.  Esoteric after an odd step holds the rotated layout, which
  // no checkpoint carries: with interval 5 it saves the odd multiples one
  // step later (..., 26, 30, 36) and rolls back to step 36.  Both end
  // bitwise equal to the fault-free fused run.
  const int n = 24, total = 60;
  const PopulationField reference = referenceRun(n, total);
  struct Case {
    const char* backend;
    HaloMode mode;
    std::uint64_t interval, restored;
  };
  for (const Case& k : {Case{"fused", HaloMode::Overlap, 10, 30},
                        Case{"esoteric", HaloMode::Sequential, 5, 36}}) {
    SCOPED_TRACE(k.backend);
    const std::string prefix = tmpPrefix("swlb_res_kill");
    removeAll(prefix);
    WorldConfig wcfg;
    wcfg.faults.killRank = 2;
    wcfg.faults.killAtStep = 37;
    World world(4, wcfg);
    PopulationField recovered;
    std::uint64_t recoveries = 0, restoredStep = 0;
    world.run([&](Comm& c) {
      DistributedSolver<D2Q9>::Config cfg = tgvConfig(n);
      cfg.backend = k.backend;
      cfg.mode = k.mode;
      DistributedSolver<D2Q9> solver(c, cfg);
      initTgv(solver, n);
      ResilientRunnerConfig<D2Q9> rcfg;
      rcfg.checkpoint.interval = k.interval;
      rcfg.checkpoint.keep = 2;
      rcfg.fault.recvTimeout = 0.25;
      ResilientRunner<D2Q9> runner(solver, prefix, rcfg);
      const auto rep = runner.run(total);
      EXPECT_EQ(solver.stepsDone(), static_cast<std::uint64_t>(total));
      PopulationField g = solver.gatherPopulations(0);
      if (c.rank() == 0) {
        recovered = std::move(g);
        recoveries = rep.recoveries;
        restoredStep = rep.lastRestoredStep;
      }
    });
    EXPECT_EQ(world.faultStats().kills, 1u);
    EXPECT_EQ(recoveries, 1u);
    EXPECT_EQ(restoredStep, k.restored);  // newest complete generation
    expectBitIdentical(reference, recovered);
    removeAll(prefix);
  }
}

TEST(Resilience, DroppedHaloMessageTimesOutAndRecoversBitIdentical) {
  const int n = 16, total = 40;
  const std::string prefix = tmpPrefix("swlb_res_drop");
  removeAll(prefix);
  const PopulationField reference = referenceRun(n, total);

  WorldConfig wcfg;
  FaultPlan::MessageFault drop;
  drop.action = FaultPlan::Action::Drop;
  drop.src = 0;
  drop.dst = 1;  // any tag: rank 1 is rank 0's wrapped x neighbour, so two
  drop.nth = 25; // flows (+x, -x) each lose their 26th strip in one step
  wcfg.faults.messageFaults.push_back(drop);
  World world(4, wcfg);
  PopulationField recovered;
  std::uint64_t recoveries = 0;
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(n));
    initTgv(solver, n);
    ResilientRunnerConfig<D2Q9> rcfg;
    rcfg.checkpoint.interval = 10;
    rcfg.fault.recvTimeout = 0.25;
    ResilientRunner<D2Q9> runner(solver, prefix, rcfg);
    const auto rep = runner.run(total);
    PopulationField g = solver.gatherPopulations(0);
    if (c.rank() == 0) {
      recovered = std::move(g);
      recoveries = rep.recoveries;
    }
  });
  EXPECT_EQ(world.faultStats().dropped, 2u);  // both x flows, same step
  EXPECT_EQ(recoveries, 1u);
  expectBitIdentical(reference, recovered);
  removeAll(prefix);
}

TEST(Resilience, DroppedHaloMessageOnRebalanceStepRollsBackBitIdentical) {
  // 2 ranks x 2 blocks with a hair-trigger measured rebalance every 5
  // steps.  Rank 0's strip with tag 5 (block 0 -> block 2, +y) is lost in
  // step 5: rank 1 times out inside that step while rank 0 completes it.
  // The rebalance collectives run only after a step the vote accepted, so
  // rank 0 cannot be in the weights allreduce while rank 1 votes.  The run
  // rolls back to the step-4 generation and ends bitwise equal to the
  // fault-free run, whatever blocks the rebalances move.
  const int n = 16, total = 20;
  const std::string prefix = tmpPrefix("swlb_res_rebalance_drop");
  removeAll(prefix);
  const PopulationField reference = referenceRun(n, total);

  obs::MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.metrics = &reg;
  FaultPlan::MessageFault drop;
  drop.action = FaultPlan::Action::Drop;
  drop.src = 0;
  drop.dst = 1;
  drop.tag = 5;
  drop.nth = 4;  // one strip per step on this flow: the step-5 strip
  wcfg.faults.messageFaults.push_back(drop);
  World world(2, wcfg);
  PopulationField recovered;
  std::uint64_t recoveries = 0, restoredStep = 0;
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9>::Config cfg = tgvConfig(n);
    cfg.rebalanceEvery = 5;
    cfg.rebalanceThreshold = 1.0001;
    DistributedSolver<D2Q9> solver(c, cfg);
    initTgv(solver, n);
    ASSERT_EQ(solver.owners(), (std::vector<int>{0, 0, 1, 1}));
    ResilientRunnerConfig<D2Q9> rcfg;
    rcfg.checkpoint.interval = 4;
    rcfg.checkpoint.keep = 8;
    rcfg.fault.recvTimeout = 0.25;
    ResilientRunner<D2Q9> runner(solver, prefix, rcfg);
    const auto rep = runner.run(total);
    EXPECT_EQ(solver.stepsDone(), static_cast<std::uint64_t>(total));
    PopulationField g = solver.gatherPopulations(0);
    if (c.rank() == 0) {
      recovered = std::move(g);
      recoveries = rep.recoveries;
      restoredStep = rep.lastRestoredStep;
    }
  });
  EXPECT_EQ(world.faultStats().dropped, 1u);
  EXPECT_EQ(recoveries, 1u);
  EXPECT_EQ(restoredStep, 4u);
  // Steps 5, 10, 15 and 20 each ran one check per rank; the failed
  // attempt at step 5 ran none.
  EXPECT_EQ(reg.histogramSummary("patch.rebalance").count, 8u);
  expectBitIdentical(reference, recovered);
  removeAll(prefix);
}

TEST(Resilience, NanGuardTripsRollbackAndHeals) {
  const int n = 16, total = 30;
  const std::string prefix = tmpPrefix("swlb_res_nan");
  removeAll(prefix);
  const PopulationField reference = referenceRun(n, total);

  World world(4);
  PopulationField recovered;
  std::uint64_t recoveries = 0;
  std::atomic<bool> injected{false};
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(n));
    initTgv(solver, n);
    ResilientRunnerConfig<D2Q9> rcfg;
    rcfg.checkpoint.interval = 10;
    rcfg.fault.recvTimeout = 0.25;
    rcfg.guardInterval = 1;
    rcfg.beforeStep = [&](DistributedSolver<D2Q9>& s, std::uint64_t step) {
      if (step == 15 && s.comm().rank() == 1 && !injected.exchange(true))
        s.f()(0, 2, 2, 0) = std::numeric_limits<Real>::quiet_NaN();
    };
    ResilientRunner<D2Q9> runner(solver, prefix, rcfg);
    const auto rep = runner.run(total);
    PopulationField g = solver.gatherPopulations(0);
    if (c.rank() == 0) {
      recovered = std::move(g);
      recoveries = rep.recoveries;
    }
  });
  EXPECT_TRUE(injected.load());
  EXPECT_EQ(recoveries, 1u);
  expectBitIdentical(reference, recovered);
  removeAll(prefix);
}

TEST(Resilience, RestoreSkipsIncompleteGeneration) {
  const int n = 16;
  const std::string prefix = tmpPrefix("swlb_res_incomplete");
  removeAll(prefix);
  World world(4);
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(n));
    initTgv(solver, n);
    io::CheckpointPolicy policy;
    policy.interval = 10;
    policy.keep = 3;
    DistributedCheckpointController<D2Q9> ckpt(c, prefix, policy);
    solver.run(10);
    ckpt.save(solver);
    solver.run(10);
    ckpt.save(solver);
    c.barrier();
    if (c.rank() == 2) {
      // Simulate a crash that tore rank 2's block of the newest
      // generation after its manifest committed.
      std::ofstream os(group_checkpoint_path(ckpt.generationPrefix(20), 2),
                       std::ios::binary | std::ios::trunc);
      os << "torn";
    }
    c.barrier();
    const std::uint64_t restored = ckpt.restoreNewestComplete(solver);
    EXPECT_EQ(restored, 10u);
    EXPECT_EQ(solver.stepsDone(), 10u);
  });
  removeAll(prefix);
}

TEST(Resilience, ControllerRotatesAndRediscoversGenerations) {
  const int n = 16;
  const std::string prefix = tmpPrefix("swlb_res_rotate");
  removeAll(prefix);
  World world(4);
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(n));
    initTgv(solver, n);
    io::CheckpointPolicy policy;
    policy.interval = 5;
    policy.keep = 2;
    {
      DistributedCheckpointController<D2Q9> ckpt(c, prefix, policy);
      for (int i = 0; i < 15; ++i) {
        solver.step();
        ckpt.maybeSave(solver);
      }
      ASSERT_EQ(ckpt.generations().size(), 2u);
      EXPECT_EQ(ckpt.generations().front(), 10u);
      EXPECT_EQ(ckpt.generations().back(), 15u);
      c.barrier();
      // Rotated-out generation is gone from disk.
      EXPECT_FALSE(fs::exists(group_manifest_path(ckpt.generationPrefix(5))));
      EXPECT_FALSE(
          fs::exists(group_checkpoint_path(ckpt.generationPrefix(5), c.rank())));
    }
    c.barrier();
    // A fresh controller (fresh "process") rediscovers what is on disk.
    DistributedCheckpointController<D2Q9> again(c, prefix, policy);
    ASSERT_EQ(again.generations().size(), 2u);
    EXPECT_EQ(again.generations().front(), 10u);
    EXPECT_EQ(again.generations().back(), 15u);
    const std::uint64_t restored = again.restoreNewestComplete(solver);
    EXPECT_EQ(restored, 15u);
  });
  removeAll(prefix);
}

TEST(Resilience, ScansSkipStepNumbersPastSixtyFourBits) {
  // Stray names whose step overflows 64 bits are neither generations
  // (scanGenerations) nor debris (garbageCollect): both scans skip them.
  const int n = 16;
  const std::string prefix = tmpPrefix("swlb_res_long_step");
  removeAll(prefix);
  const std::string huge = ".g99999999999999999999999";
  World world(2);
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(n));
    initTgv(solver, n);
    io::CheckpointPolicy policy;
    policy.interval = 5;
    policy.keep = 2;
    {
      DistributedCheckpointController<D2Q9> ckpt(c, prefix, policy);
      solver.run(5);
      ASSERT_TRUE(ckpt.maybeSave(solver));
    }
    c.barrier();
    if (c.rank() == 0) {
      std::ofstream(prefix + huge + ".manifest") << "stray";
      std::ofstream(prefix + huge + ".rank0.ckpt") << "stray";
    }
    c.barrier();
    DistributedCheckpointController<D2Q9> again(c, prefix, policy);
    ASSERT_EQ(again.generations().size(), 1u);
    EXPECT_EQ(again.generations().front(), 5u);
    EXPECT_EQ(again.restoreNewestComplete(solver), 5u);
  });
  EXPECT_TRUE(fs::exists(prefix + huge + ".rank0.ckpt"));
  removeAll(prefix);
}

TEST(Resilience, RotationRemovesEveryBlockOfSeveralPerRank) {
  // Two ranks with two blocks each: rotation and clear() must delete all
  // four files of a generation, not just one stripe per rank.
  const int n = 16;
  const std::string prefix = tmpPrefix("swlb_res_blocks");
  removeAll(prefix);
  World world(2);
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(n));
    initTgv(solver, n);
    io::CheckpointPolicy policy;
    policy.interval = 1;
    policy.keep = 1;
    DistributedCheckpointController<D2Q9> ckpt(c, prefix, policy);
    for (int i = 0; i < 20; ++i) {
      solver.step();
      ckpt.maybeSave(solver);
    }
    ckpt.clear();
  });
  std::error_code ec;
  const std::string base = fs::path(prefix).filename().string();
  for (const auto& entry : fs::directory_iterator(
           fs::path(prefix).parent_path(), ec))
    EXPECT_NE(entry.path().filename().string().rfind(base, 0), 0u)
        << entry.path();
  removeAll(prefix);
}

TEST(Resilience, RunnerWithoutFaultsMatchesPlainRunAndCheckpointsRotate) {
  const int n = 16, total = 25;
  const std::string prefix = tmpPrefix("swlb_res_clean");
  removeAll(prefix);
  const PopulationField reference = referenceRun(n, total);

  World world(4);
  PopulationField got;
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(n));
    initTgv(solver, n);
    ResilientRunnerConfig<D2Q9> rcfg;
    rcfg.checkpoint.interval = 10;
    rcfg.checkpoint.keep = 2;
    rcfg.guardInterval = 5;  // guard on, never trips on a healthy run
    ResilientRunner<D2Q9> runner(solver, prefix, rcfg);
    const auto rep = runner.run(total);
    EXPECT_EQ(rep.recoveries, 0u);
    const auto& gens = runner.checkpoints().generations();
    ASSERT_EQ(gens.size(), 2u);  // keep=2: steps 10 and 20 survive
    EXPECT_EQ(gens.front(), 10u);
    EXPECT_EQ(gens.back(), 20u);
    PopulationField g = solver.gatherPopulations(0);
    if (c.rank() == 0) got = std::move(g);
  });
  expectBitIdentical(reference, got);
  removeAll(prefix);
}

TEST(Resilience, DelayedMessageIsRetriedWithoutRollback) {
  const int n = 16, total = 40;
  const std::string prefix = tmpPrefix("swlb_res_delay");
  removeAll(prefix);
  const PopulationField reference = referenceRun(n, total);

  obs::MetricsRegistry reg;
  WorldConfig wcfg;
  FaultPlan::MessageFault slow;
  slow.action = FaultPlan::Action::Delay;
  slow.src = 0;
  slow.dst = 1;
  slow.nth = 25;
  slow.delay = 0.4;  // beyond the 0.25 s first window, inside the retry
  wcfg.faults.messageFaults.push_back(slow);
  wcfg.metrics = &reg;
  World world(4, wcfg);
  PopulationField recovered;
  std::uint64_t recoveries = 1;
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(n));
    initTgv(solver, n);
    ResilientRunnerConfig<D2Q9> rcfg;
    rcfg.checkpoint.interval = 10;
    rcfg.fault.recvTimeout = 0.25;
    rcfg.fault.recvRetries = 1;  // one retry, window widening 0.25 -> 0.5 s
    ResilientRunner<D2Q9> runner(solver, prefix, rcfg);
    const auto rep = runner.run(total);
    PopulationField g = solver.gatherPopulations(0);
    if (c.rank() == 0) {
      recovered = std::move(g);
      recoveries = rep.recoveries;
    }
  });
  EXPECT_EQ(world.faultStats().delayed, 2u);  // both x flows, same step
  EXPECT_EQ(recoveries, 0u);                  // absorbed, no rollback
  EXPECT_GE(reg.counterValue("comm.recv_retries"), 1u);
  expectBitIdentical(reference, recovered);
  removeAll(prefix);
}

TEST(Resilience, ScanGenerationsGarbageCollectsOrphans) {
  const int n = 16;
  const std::string prefix = tmpPrefix("swlb_res_gc");
  removeAll(prefix);
  World world(4);
  world.run([&](Comm& c) {
    DistributedSolver<D2Q9> solver(c, tgvConfig(n));
    initTgv(solver, n);
    io::CheckpointPolicy policy;
    policy.interval = 10;
    {
      DistributedCheckpointController<D2Q9> ckpt(c, prefix, policy);
      solver.run(10);
      ckpt.save(solver);
    }
    c.barrier();
    if (c.rank() == 0) {
      // Crash debris: blocks of a generation whose manifest never
      // committed, plus stray atomic-write temporaries.
      std::ofstream(prefix + ".g999.rank0.ckpt") << "torn";
      std::ofstream(prefix + ".g999.rank1.ckpt") << "torn";
      std::ofstream(prefix + ".g10.rank0.ckpt.tmp") << "torn";
      std::ofstream(prefix + ".g999.manifest.tmp") << "torn";
    }
    c.barrier();
    // A fresh controller (fresh "process") sweeps the debris on
    // construction and rediscovers only the committed generation.
    DistributedCheckpointController<D2Q9> again(c, prefix, policy);
    ASSERT_EQ(again.generations().size(), 1u);
    EXPECT_EQ(again.generations().front(), 10u);
    if (c.rank() == 0) {
      EXPECT_FALSE(fs::exists(prefix + ".g999.rank0.ckpt"));
      EXPECT_FALSE(fs::exists(prefix + ".g999.rank1.ckpt"));
      EXPECT_FALSE(fs::exists(prefix + ".g10.rank0.ckpt.tmp"));
      EXPECT_FALSE(fs::exists(prefix + ".g999.manifest.tmp"));
      // The committed generation's files survive the sweep.
      EXPECT_TRUE(fs::exists(group_manifest_path(prefix + ".g10")));
      EXPECT_TRUE(fs::exists(group_checkpoint_path(prefix + ".g10", 0)));
    }
    solver.run(5);  // drift, then prove the swept store still restores
    const std::uint64_t restored = again.restoreNewestComplete(solver);
    EXPECT_EQ(restored, 10u);
    EXPECT_EQ(solver.stepsDone(), 10u);
  });
  removeAll(prefix);
}

TEST(Resilience, PermanentRankLossShrinksToFitAndContinues) {
  const int n = 24, total = 60;
  const std::string prefix = tmpPrefix("swlb_res_shrink");
  removeAll(prefix);

  // Fault-free 4-rank cavity reference.
  PopulationField reference;
  {
    World world(4);
    world.run([&](Comm& c) {
      auto s = buildCavity(c, n);
      s->run(total);
      PopulationField g = s->gatherPopulations(0);
      if (c.rank() == 0) reference = std::move(g);
    });
  }

  obs::MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.faults.killRank = 2;
  wcfg.faults.killAtStep = 37;  // between the step-30 and step-40 generations
  wcfg.faults.killPermanent = true;  // node retired: no respawn
  wcfg.metrics = &reg;
  World world(4, wcfg);
  PopulationField recovered;
  std::uint64_t shrinks = 0, ranksLost = 0, restored = 0;
  int finalRanks = 0;
  world.run([&](Comm& c) {
    auto solver = buildCavity(c, n);
    ResilientRunnerConfig<D2Q9> rcfg;
    rcfg.checkpoint.interval = 10;
    rcfg.checkpoint.keep = 8;  // keep .g30 for the comparison runs below
    rcfg.fault.recvTimeout = 0.25;
    rcfg.fault.maxShrinks = 1;
    rcfg.rebuild = [n](Comm& cc) { return buildCavity(cc, n); };
    ResilientRunner<D2Q9> runner(*solver, prefix, rcfg);
    // Rank 2's thread unwinds via RankKilledError here; survivors shrink
    // around it and keep running.
    const auto rep = runner.run(total);
    EXPECT_EQ(runner.solver().stepsDone(), static_cast<std::uint64_t>(total));
    PopulationField g = runner.solver().gatherPopulations(0);
    if (c.rank() == 0) {
      recovered = std::move(g);
      shrinks = rep.shrinks;
      ranksLost = rep.ranksLost;
      restored = rep.lastRestoredStep;
      finalRanks = c.size();
    }
  });
  EXPECT_EQ(world.faultStats().kills, 1u);
  EXPECT_EQ(world.deadRanks(), std::vector<int>{2});
  EXPECT_EQ(shrinks, 1u);
  EXPECT_EQ(ranksLost, 1u);
  EXPECT_EQ(restored, 30u);  // newest complete generation before the kill
  EXPECT_EQ(finalRanks, 3);
  EXPECT_GE(reg.counterValue("resilience.shrink.count"), 1u);
  EXPECT_GE(reg.counterValue("resilience.shrink.ranks_lost"), 1u);
  EXPECT_GE(reg.histogramSummary("resilience.downtime_seconds").count, 1u);

  // A fresh 3-rank run restored from the same generation must continue
  // bit-identically to the shrunken survivors (f64 path) ...
  PopulationField fresh;
  {
    World w3(3);
    w3.run([&](Comm& c) {
      auto s = buildCavity(c, n);
      load_group_checkpoint_elastic(*s, prefix + ".g30");
      EXPECT_EQ(s->stepsDone(), 30u);
      s->run(total - 30);
      PopulationField g = s->gatherPopulations(0);
      if (c.rank() == 0) fresh = std::move(g);
    });
  }
  expectBitIdentical(recovered, fresh);
  // ... and the whole recovered trajectory matches the fault-free one
  // (per-cell collision + bitwise halo copies are layout-independent).
  expectBitIdentical(reference, recovered);
  removeAll(prefix);
}

TEST(Resilience, SpliceRestoreComposesWithCrossPrecisionCheckpoints) {
  const int n = 16, steps = 20;
  const std::string prefix = tmpPrefix("swlb_res_xprec");
  removeAll(prefix);
  const std::string gp = prefix + ".g20";

  // Write an f32-storage generation at 4 ranks; keep its decoded gather.
  PopulationField saved;
  {
    World world(4);
    world.run([&](Comm& c) {
      auto s = buildCavity<float>(c, n);
      s->run(steps);
      save_group_checkpoint(*s, gp);
      PopulationField g = s->gatherPopulations(0);
      if (c.rank() == 0) saved = std::move(g);
    });
  }

  // Same-precision splice at 3 ranks: raw storage copy, bit-exact.
  PopulationField at3f32;
  {
    World world(3);
    world.run([&](Comm& c) {
      auto s = buildCavity<float>(c, n);
      load_group_checkpoint_elastic(*s, gp);
      EXPECT_EQ(s->stepsDone(), 20u);
      PopulationField g = s->gatherPopulations(0);
      if (c.rank() == 0) at3f32 = std::move(g);
    });
  }
  expectBitIdentical(saved, at3f32);

  // Cross-precision splice at 3 ranks: the f32 file decodes into the f64
  // field exactly as the f32 solver's own gather decodes it.
  PopulationField at3f64;
  {
    World world(3);
    world.run([&](Comm& c) {
      auto s = buildCavity<Real>(c, n);
      load_group_checkpoint_elastic(*s, gp);
      EXPECT_EQ(s->stepsDone(), 20u);
      PopulationField g = s->gatherPopulations(0);
      if (c.rank() == 0) at3f64 = std::move(g);
    });
  }
  expectBitIdentical(saved, at3f64);
  removeAll(prefix);
}

}  // namespace
}  // namespace swlb::runtime
