// Cross-layer observability invariants (DESIGN.md §6): the metrics the
// obs layer reports must agree with what the runtime independently
// measures — halo bytes with the decomposition's model, comm counters
// with World::totalStats, fault counters with FaultStats, checkpoint
// bytes with the files on disk — and phase times must nest inside the
// step time.  Everything runs on both halo modes where it applies.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/distributed_solver.hpp"
#include "runtime/parallel_io.hpp"

namespace {

using namespace swlb;
using namespace swlb::obs;
using runtime::Comm;
using runtime::DistributedSolver;
using runtime::FaultPlan;
using runtime::HaloMode;
using runtime::TimeoutError;
using runtime::World;
using runtime::WorldConfig;

DistributedSolver<D2Q9>::Config solverConfig(HaloMode mode) {
  DistributedSolver<D2Q9>::Config cfg;
  cfg.global = {16, 16, 1};
  cfg.patchGrid = {2, 2, 1};
  cfg.periodic = {true, true, false};
  cfg.mode = mode;
  return cfg;
}

void initShear(DistributedSolver<D2Q9>& solver) {
  solver.initField([](int, int y, int, Real& rho, Vec3& u) {
    rho = 1.0;
    u = {0.02 * ((y % 4) - 1.5), 0.0, 0.0};
  });
}

class ObsIntegration : public ::testing::TestWithParam<HaloMode> {};

// Halo traffic metered by Comm must equal the decomposition's analytic
// model: counter delta over the stepping window == sum over ranks of
// haloBytesPerStep() x steps.  Barriers fence the window; collectives use
// condition variables, not messages, so they never pollute the counters.
TEST_P(ObsIntegration, HaloBytesCounterMatchesModel) {
  constexpr std::uint64_t kSteps = 7;
  constexpr int kRanks = 4;
  MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.metrics = &reg;
  World world(kRanks, wcfg);

  std::uint64_t sentBefore = 0, sentAfter = 0;
  std::uint64_t recvBefore = 0, recvAfter = 0;
  std::uint64_t msgsBefore = 0, msgsAfter = 0;
  std::uint64_t collMsgsBefore = 0, collMsgsAfter = 0;
  double expectedBytes = 0;
  // Collectives are messages (swlb::coll), so counter snapshots need a
  // quiescent instant: a barrier alone cannot fence its own traffic (a
  // peer may still owe its last dissemination send when rank 0 exits).
  // Rendezvous: after a barrier every rank reports to rank 0 with a
  // zero-byte token and blocks until rank 0 has read the counters and
  // releases it — nothing is in flight during the read.  All rendezvous
  // payloads are zero bytes, so byte deltas stay pure halo traffic.
  constexpr int kReportTag = 500;
  constexpr int kReleaseTag = 501;
  auto quiescentRead = [&](Comm& comm, auto&& read) {
    comm.barrier();
    if (comm.rank() == 0) {
      for (int r = 1; r < comm.size(); ++r)
        comm.recv(r, kReportTag, nullptr, 0);
      read();
      for (int r = 1; r < comm.size(); ++r)
        comm.send(r, kReleaseTag, nullptr, 0);
    } else {
      comm.send(0, kReportTag, nullptr, 0);
      comm.recv(0, kReleaseTag, nullptr, 0);
    }
  };
  world.run([&](Comm& comm) {
    DistributedSolver<D2Q9> solver(comm, solverConfig(GetParam()));
    initShear(solver);
    quiescentRead(comm, [&] {
      sentBefore = reg.counterValue("comm.bytes_sent");
      recvBefore = reg.counterValue("comm.bytes_received");
      msgsBefore = reg.counterValue("comm.messages_sent");
      collMsgsBefore = reg.counterValue("coll.messages_sent");
    });
    solver.run(kSteps);
    quiescentRead(comm, [&] {
      sentAfter = reg.counterValue("comm.bytes_sent");
      recvAfter = reg.counterValue("comm.bytes_received");
      msgsAfter = reg.counterValue("comm.messages_sent");
      collMsgsAfter = reg.counterValue("coll.messages_sent");
    });
    const double total = comm.allreduce(
        static_cast<double>(solver.haloBytesPerStep()), Comm::Op::Sum);
    if (comm.rank() == 0) expectedBytes = total;
  });

  const auto expected =
      static_cast<std::uint64_t>(expectedBytes) * kSteps;
  EXPECT_EQ(sentAfter - sentBefore, expected);
  // Nothing was dropped, so every sent halo byte was also received.
  EXPECT_EQ(recvAfter - recvBefore, expected);
  // 2x2 periodic torus: 8 neighbour messages per rank per step.  The
  // window also contains one barrier (subtracted via the coll counter)
  // and the zero-byte rendezvous tokens: P-1 releases after the first
  // read plus P-1 reports before the second.
  const std::uint64_t collMsgs = collMsgsAfter - collMsgsBefore;
  const std::uint64_t tokenMsgs = 2u * (kRanks - 1);
  EXPECT_EQ((msgsAfter - msgsBefore) - collMsgs - tokenMsgs,
            4u * 8u * kSteps);
}

// Top-level phase times are disjoint sub-intervals of "step": summed over
// the whole run (and all ranks, since the registry is shared) they must
// not exceed the step total by more than bookkeeping overhead.
TEST_P(ObsIntegration, PhaseTimesSumWithinStepTime) {
  constexpr std::uint64_t kSteps = 10;
  constexpr int kRanks = 4;
  MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.metrics = &reg;
  World world(kRanks, wcfg);
  world.run([&](Comm& comm) {
    DistributedSolver<D2Q9> solver(comm, solverConfig(GetParam()));
    initShear(solver);
    solver.run(kSteps);
  });

  const std::vector<std::string> topLevel =
      GetParam() == HaloMode::Sequential
          ? std::vector<std::string>{"z_wrap", "halo.exchange",
                                     "compute.interior"}
          : std::vector<std::string>{"z_wrap", "halo.post",
                                     "compute.interior", "halo.finish",
                                     "compute.frontier"};
  const Histogram::Summary step = reg.histogramSummary("step");
  EXPECT_EQ(step.count, static_cast<std::uint64_t>(kRanks) * kSteps);
  double phaseSum = 0;
  for (const std::string& name : topLevel) {
    const Histogram::Summary s = reg.histogramSummary(name);
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(kRanks) * kSteps) << name;
    EXPECT_GE(s.total, 0.0) << name;
    phaseSum += s.total;
  }
  EXPECT_GT(step.total, 0.0);
  // Tolerance covers the per-scope clock reads between phases.
  EXPECT_LE(phaseSum, step.total * 1.05);
}

// The obs counters and the runtime's own per-rank CommStats meter the
// same events at the same sites: whole-run totals must agree exactly.
TEST_P(ObsIntegration, CommCountersMatchWorldTotalStats) {
  MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.metrics = &reg;
  World world(4, wcfg);
  world.run([&](Comm& comm) {
    DistributedSolver<D2Q9> solver(comm, solverConfig(GetParam()));
    initShear(solver);
    solver.run(5);
    solver.gatherPopulations(0);
  });
  const runtime::CommStats total = world.totalStats();
  EXPECT_GT(total.messagesSent, 0u);
  EXPECT_EQ(reg.counterValue("comm.messages_sent"), total.messagesSent);
  EXPECT_EQ(reg.counterValue("comm.bytes_sent"), total.bytesSent);
  EXPECT_EQ(reg.counterValue("comm.messages_received"),
            total.messagesReceived);
  EXPECT_EQ(reg.counterValue("comm.bytes_received"), total.bytesReceived);
}

INSTANTIATE_TEST_SUITE_P(BothHaloModes, ObsIntegration,
                         ::testing::Values(HaloMode::Sequential,
                                           HaloMode::Overlap),
                         [](const auto& info) {
                           return info.param == HaloMode::Sequential
                                      ? "Sequential"
                                      : "Overlap";
                         });

// A fault-injected drop must show up in *both* books: the world's
// FaultStats and the obs counter — and surface as a metered timeout on
// the starved receiver.
TEST(ObsFaults, DroppedMessageCountedInFaultStatsAndMetrics) {
  MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.metrics = &reg;
  FaultPlan::MessageFault drop;
  drop.action = FaultPlan::Action::Drop;
  drop.src = 0;
  drop.dst = 1;
  drop.tag = 7;
  wcfg.faults.messageFaults.push_back(drop);
  World world(2, wcfg);
  int timeouts = 0;
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      const double v = 1.0;
      comm.send(1, 7, &v, sizeof(v));
    } else {
      double v = 0;
      try {
        comm.recv(0, 7, &v, sizeof(v), /*timeoutSec=*/0.1);
      } catch (const TimeoutError&) {
        ++timeouts;
      }
    }
  });
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(world.faultStats().dropped, 1u);
  EXPECT_EQ(reg.counterValue("comm.faults.dropped"), 1u);
  EXPECT_EQ(reg.counterValue("comm.timeouts"), 1u);
  // The dropped message was sent but never received.
  EXPECT_EQ(reg.counterValue("comm.messages_sent"), 1u);
  EXPECT_EQ(reg.counterValue("comm.messages_received"), 0u);
}

// Delay faults applied to live halo traffic: the run completes and the
// two books agree on how many deliveries were slowed.
TEST(ObsFaults, DelayedHaloMessagesCountedOnBothBooks) {
  MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.metrics = &reg;
  FaultPlan::MessageFault delay;
  delay.action = FaultPlan::Action::Delay;
  delay.src = 0;
  delay.nth = 0;
  delay.count = 3;
  delay.delay = 0.002;
  wcfg.faults.messageFaults.push_back(delay);
  World world(4, wcfg);
  world.run([&](Comm& comm) {
    DistributedSolver<D2Q9> solver(comm, solverConfig(HaloMode::Overlap));
    initShear(solver);
    solver.run(3);
  });
  EXPECT_GT(world.faultStats().delayed, 0u);
  EXPECT_EQ(reg.counterValue("comm.faults.delayed"),
            world.faultStats().delayed);
}

// Checkpoint byte counters must match the files actually on disk, and the
// save/restore phases must appear on the shared timeline.
TEST(ObsCheckpoint, ByteCountersMatchFilesOnDisk) {
  const std::string prefix = ::testing::TempDir() + "swlb_obs_ckpt";
  Tracer tracer;
  MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.tracer = &tracer;
  wcfg.metrics = &reg;
  constexpr int kRanks = 4;
  World world(kRanks, wcfg);
  world.run([&](Comm& comm) {
    DistributedSolver<D2Q9> solver(comm, solverConfig(HaloMode::Overlap));
    initShear(solver);
    solver.run(2);
    runtime::save_group_checkpoint(solver, prefix);
    runtime::load_group_checkpoint(solver, prefix);
  });

  std::uint64_t onDisk = 0;
  for (int r = 0; r < kRanks; ++r) {
    std::ifstream in(runtime::group_checkpoint_path(prefix, r),
                     std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in) << "rank " << r;
    onDisk += static_cast<std::uint64_t>(in.tellg());
  }
  EXPECT_EQ(reg.counterValue("checkpoint.bytes_written"), onDisk);
  EXPECT_EQ(reg.counterValue("checkpoint.bytes_read"), onDisk);

  std::map<std::string, int> phases;
  for (const TraceEvent& e : tracer.events()) ++phases[e.name];
  EXPECT_EQ(phases["checkpoint.group_save"], kRanks);
  EXPECT_EQ(phases["checkpoint.save"], kRanks);
  EXPECT_EQ(phases["checkpoint.group_restore"], kRanks);
  EXPECT_EQ(phases["checkpoint.restore"], kRanks);

  for (int r = 0; r < kRanks; ++r)
    std::remove(runtime::group_checkpoint_path(prefix, r).c_str());
  std::remove(runtime::group_manifest_path(prefix).c_str());
}

}  // namespace
