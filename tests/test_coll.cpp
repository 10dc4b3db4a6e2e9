// swlb::coll — collective communication subsystem (DESIGN.md §7).
//
// Correctness strategy: every collective x dtype x algorithm x rank count
// is checked against a serial left-fold reference computed from the same
// per-rank inputs.  Reduction inputs are small integers (exactly
// representable in float/double), so *any* association of the fold gives
// the bitwise-same answer and the reference comparison is exact even for
// the ring's rotated operand order.  Determinism (run-to-run bit
// identity, cross-rank bit identity) is asserted separately with
// non-representable irrational inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "coll/coll.hpp"
#include "obs/metrics.hpp"
#include "runtime/comm.hpp"
#include "sw/spec.hpp"

namespace swlb::coll {
namespace {

using runtime::Comm;
using runtime::World;
using runtime::WorldConfig;

constexpr int kRankCounts[] = {1, 2, 3, 4, 5, 7, 8, 16};
constexpr Algo kAlgos[] = {Algo::Naive, Algo::Tree, Algo::Ring};
constexpr Op kOps[] = {Op::Sum, Op::Min, Op::Max};

const char* algoName(Algo a) {
  switch (a) {
    case Algo::Auto: return "Auto";
    case Algo::Naive: return "Naive";
    case Algo::Tree: return "Tree";
    case Algo::Ring: return "Ring";
  }
  return "?";
}

CollConfig forced(Algo a) {
  CollConfig cfg;
  cfg.allreduce = cfg.reduce = cfg.broadcast = a;
  cfg.gather = cfg.allgather = cfg.reduceScatter = a;
  return cfg;
}

/// Exactly representable per-rank test data: small integers, so every
/// fold order agrees bitwise and Sum never rounds.
template <typename T>
T val(int rank, std::size_t i) {
  return static_cast<T>((rank * 7 + static_cast<int>(i) * 3) % 21 - 10);
}

template <typename T>
T refOp(T a, T b, Op op) {
  switch (op) {
    case Op::Sum: return a + b;
    case Op::Min: return a < b ? a : b;
    case Op::Max: return b < a ? a : b;
  }
  return a;
}

/// Serial reference: left fold over ranks 0..P-1 of val(r, i).
template <typename T>
std::vector<T> refReduce(int ranks, std::size_t n, Op op) {
  std::vector<T> acc(n);
  for (std::size_t i = 0; i < n; ++i) acc[i] = val<T>(0, i);
  for (int r = 1; r < ranks; ++r)
    for (std::size_t i = 0; i < n; ++i)
      acc[i] = refOp(acc[i], val<T>(r, i), op);
  return acc;
}

/// Every collective of one dtype under one forced algorithm, verified
/// against the serial reference.  Runs inside a World rank function.
template <typename T>
void exerciseType(Comm& c, Algo algo) {
  SCOPED_TRACE(std::string("algo=") + algoName(algo) +
               " P=" + std::to_string(c.size()) +
               " rank=" + std::to_string(c.rank()));
  Collectives cs(c, forced(algo));
  const int P = c.size();
  const int r = c.rank();
  const std::size_t n = 13;  // prime: uneven ring chunks for every P > 1
  const int root = P > 1 ? 1 : 0;  // non-zero root exercises virtual ranks

  for (Op op : kOps) {
    const std::vector<T> expect = refReduce<T>(P, n, op);
    // allreduce: every rank converges to the reference.
    std::vector<T> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = val<T>(r, i);
    cs.allreduce(std::span<T>(v), op);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(v[i], expect[i]) << i;

    // reduce: only the root's buffer is specified.
    std::vector<T> v2(n);
    for (std::size_t i = 0; i < n; ++i) v2[i] = val<T>(r, i);
    cs.reduce(root, std::span<T>(v2), op);
    if (r == root) {
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(v2[i], expect[i]) << i;
    }

    // reduce_scatter: this rank's chunk of the reference.
    const auto [lo, hi] = Collectives::chunkRange(n, P, r);
    std::vector<T> in(n), chunk(hi - lo);
    for (std::size_t i = 0; i < n; ++i) in[i] = val<T>(r, i);
    cs.reduce_scatter(std::span<const T>(in), std::span<T>(chunk), op);
    for (std::size_t i = lo; i < hi; ++i)
      EXPECT_EQ(chunk[i - lo], expect[i]) << i;
  }

  // broadcast: root's payload lands everywhere.
  std::vector<T> b(n);
  if (r == root)
    for (std::size_t i = 0; i < n; ++i) b[i] = val<T>(root, i);
  cs.broadcast(root, std::span<T>(b));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(b[i], val<T>(root, i)) << i;

  // gather: blocks in physical rank order on the root.
  std::vector<T> mine(n);
  for (std::size_t i = 0; i < n; ++i) mine[i] = val<T>(r, i);
  std::vector<T> out(r == root ? static_cast<std::size_t>(P) * n : 0);
  cs.gather<T>(root, mine, out);
  if (r == root) {
    for (int rr = 0; rr < P; ++rr)
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(rr) * n + i], val<T>(rr, i))
            << rr << "/" << i;
  }

  // allgather: the same blocks on every rank.
  std::vector<T> all(static_cast<std::size_t>(P) * n);
  cs.allgather<T>(mine, all);
  for (int rr = 0; rr < P; ++rr)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(all[static_cast<std::size_t>(rr) * n + i], val<T>(rr, i))
          << rr << "/" << i;
}

TEST(Coll, EveryOpDtypeAlgorithmRankCountMatchesSerialReference) {
  for (int P : kRankCounts) {
    World world(P);
    world.run([&](Comm& c) {
      for (Algo algo : kAlgos) {
        exerciseType<double>(c, algo);
        exerciseType<float>(c, algo);
        exerciseType<std::int64_t>(c, algo);
      }
    });
  }
}

TEST(Coll, AutoPolicySelectsBySize) {
  World world(4);
  world.run([](Comm& c) {
    Collectives def(c);
    EXPECT_EQ(def.resolve(Algo::Auto, 8), Algo::Tree);
    EXPECT_EQ(def.resolve(Algo::Auto, 1 << 20), Algo::Ring);
    EXPECT_EQ(def.resolve(Algo::Naive, 1 << 20), Algo::Naive);

    CollConfig cfg;
    cfg.ringThresholdBytes = 256;
    Collectives cs(c, cfg);
    EXPECT_EQ(cs.resolve(Algo::Auto, 255), Algo::Tree);
    EXPECT_EQ(cs.resolve(Algo::Auto, 256), Algo::Ring);

    // Auto must still be correct, whatever it resolves to.
    std::vector<std::int64_t> v(100);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = val<std::int64_t>(c.rank(), i);
    cs.allreduce(std::span<std::int64_t>(v), Op::Sum);
    const auto expect = refReduce<std::int64_t>(c.size(), v.size(), Op::Sum);
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], expect[i]);
  });
}

TEST(Coll, CostModelAgreesWithSelectionPolicyAtExtremes) {
  const sw::MachineSpec spec = sw::MachineSpec::sw26010();
  const perf::NetworkModel model(spec.net, 4);
  using CA = perf::NetworkModel::CollAlgo;
  // Large payload at modest rank count: ring's bytes/P rounds win.
  const std::size_t big = 1 << 20;
  EXPECT_LT(model.collectiveSeconds(CA::Ring, big, 16),
            model.collectiveSeconds(CA::Tree, big, 16));
  EXPECT_LT(model.collectiveSeconds(CA::Tree, big, 16),
            model.collectiveSeconds(CA::Naive, big, 16));
  // Tiny payload: latency dominates, log-depth tree wins over 2(P-1) hops.
  EXPECT_LT(model.collectiveSeconds(CA::Tree, 8, 16),
            model.collectiveSeconds(CA::Ring, 8, 16));
  EXPECT_LT(model.collectiveSeconds(CA::Tree, 8, 16),
            model.collectiveSeconds(CA::Naive, 8, 16));
  // The default threshold sits where the model says rings pay off.
  World world(2);
  world.run([&](Comm& c) {
    Collectives cs(c);
    EXPECT_EQ(cs.resolve(Algo::Auto, big), Algo::Ring);
    EXPECT_EQ(cs.resolve(Algo::Auto, 8), Algo::Tree);
  });
}

TEST(Coll, GathervCollectsVariableCounts) {
  for (int P : {1, 3, 5, 8}) {
    World world(P);
    world.run([&](Comm& c) {
      Collectives cs(c);
      const int r = c.rank();
      std::vector<std::size_t> counts(static_cast<std::size_t>(P));
      std::size_t total = 0;
      for (int rr = 0; rr < P; ++rr) {
        counts[static_cast<std::size_t>(rr)] =
            static_cast<std::size_t>(rr) + 1;
        total += counts[static_cast<std::size_t>(rr)];
      }
      std::vector<double> mine(static_cast<std::size_t>(r) + 1);
      for (std::size_t i = 0; i < mine.size(); ++i) mine[i] = val<double>(r, i);
      std::vector<double> out(r == 0 ? total : 0);
      cs.gatherv<double>(0, mine, counts, out);
      if (r == 0) {
        std::size_t k = 0;
        for (int rr = 0; rr < P; ++rr)
          for (std::size_t i = 0; i <= static_cast<std::size_t>(rr); ++i)
            EXPECT_EQ(out[k++], val<double>(rr, i)) << rr << "/" << i;
      }
    });
  }
}

TEST(Coll, ChunkRangeCoversAndBalances) {
  // n not divisible by parts: first n % parts chunks get the extra.
  const std::size_t n = 13;
  const int parts = 5;
  std::size_t covered = 0;
  for (int i = 0; i < parts; ++i) {
    const auto [lo, hi] = Collectives::chunkRange(n, parts, i);
    EXPECT_EQ(lo, covered);
    covered = hi;
    EXPECT_TRUE(hi - lo == 2 || hi - lo == 3);
  }
  EXPECT_EQ(covered, n);
  // Degenerate: more parts than elements -> trailing empty chunks.
  const auto [lo8, hi8] = Collectives::chunkRange(3, 8, 7);
  EXPECT_EQ(lo8, hi8);
}

// ---- determinism ---------------------------------------------------------

/// Run one allreduce of irrational doubles and return every rank's
/// resulting buffer.
std::vector<std::vector<double>> runOnce(int P, Algo algo, std::size_t n) {
  std::vector<std::vector<double>> results(static_cast<std::size_t>(P));
  World world(P);
  world.run([&](Comm& c) {
    Collectives cs(c, forced(algo));
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = std::sin(0.7 * static_cast<double>(c.rank()) +
                      1.3 * static_cast<double>(i)) /
             3.0;
    cs.allreduce(std::span<double>(v), Op::Sum);
    results[static_cast<std::size_t>(c.rank())] = v;
  });
  return results;
}

TEST(Coll, RepeatedRunsAreBitIdenticalAndRanksAgree) {
  for (Algo algo : {Algo::Tree, Algo::Ring, Algo::Naive}) {
    SCOPED_TRACE(algoName(algo));
    const auto a = runOnce(7, algo, 13);
    const auto b = runOnce(7, algo, 13);
    for (int r = 0; r < 7; ++r) {
      // Run-to-run bit identity (fixed config, P, payload).
      EXPECT_EQ(0, std::memcmp(a[static_cast<std::size_t>(r)].data(),
                               b[static_cast<std::size_t>(r)].data(),
                               13 * sizeof(double)))
          << "run-to-run, rank " << r;
      // Cross-rank bit identity within one run: the reduced value is
      // computed once and distributed, never re-reduced per rank.
      EXPECT_EQ(0, std::memcmp(a[0].data(),
                               a[static_cast<std::size_t>(r)].data(),
                               13 * sizeof(double)))
          << "cross-rank, rank " << r;
    }
  }
}

// ---- interleaving / tag isolation ----------------------------------------

TEST(Coll, BackToBackCollectivesInterleavedWithUserTrafficDoNotInterfere) {
  World world(5);
  world.run([](Comm& c) {
    Collectives cs(c);
    const int P = c.size();
    const int r = c.rank();
    for (int round = 0; round < 50; ++round) {
      // User point-to-point in flight around the collectives (tag >= 0).
      const int peer = (r + 1) % P;
      c.sendValue(peer, 0, r * 1000 + round);
      std::int64_t s = r + round;
      cs.allreduce(std::span<std::int64_t>(&s, 1), Op::Sum);
      std::int64_t expectSum = 0;
      for (int rr = 0; rr < P; ++rr) expectSum += rr + round;
      EXPECT_EQ(s, expectSum) << round;
      cs.barrier();
      EXPECT_EQ(c.recvValue<int>((r + P - 1) % P, 0),
                ((r + P - 1) % P) * 1000 + round);
    }
    // All ranks consumed the same number of sequence numbers.
    EXPECT_EQ(c.collSequence(), 100u);
  });
}

// ---- topology ------------------------------------------------------------

TEST(Coll, TopologyGroupsRanksByNodeAndCutsRingCrossings) {
  // Round-robin placement: worst case for a ring — every edge crosses.
  const std::vector<int> nodeOf = {0, 1, 0, 1, 0, 1, 0, 1};
  EXPECT_EQ(Topology::identity(8).ringCrossings(nodeOf), 8);
  const Topology grouped = Topology::fromMapping(nodeOf);
  EXPECT_EQ(grouped.ringCrossings(nodeOf), 2);  // one cut per node
  // order is a permutation and pos is its inverse.
  for (int v = 0; v < 8; ++v)
    EXPECT_EQ(grouped.pos[static_cast<std::size_t>(
                  grouped.order[static_cast<std::size_t>(v)])],
              v);
}

TEST(Coll, TopologyAwareRingStaysCorrect) {
  // 2 ranks per supernode: processorsPerSupernode=2, cgsPerProcessor=1.
  sw::NetworkSpec net = sw::MachineSpec::sw26010().net;
  net.processorsPerSupernode = 2;
  const perf::NetworkModel model(net, 1);
  World world(8);
  world.run([&](Comm& c) {
    CollConfig cfg = forced(Algo::Ring);
    cfg.topology = &model;
    Collectives cs(c, cfg);
    EXPECT_EQ(cs.topology().size(), 8);
    std::vector<double> v(17);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = val<double>(c.rank(), i);
    cs.allreduce(std::span<double>(v), Op::Sum);
    const auto expect = refReduce<double>(8, v.size(), Op::Sum);
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], expect[i]);
    // Gather under a permuted topology still lands blocks by physical rank.
    std::vector<double> mine(3, static_cast<double>(c.rank()));
    std::vector<double> out(c.rank() == 0 ? 24 : 0);
    cs.gather<double>(0, mine, out);
    if (c.rank() == 0) {
      for (int rr = 0; rr < 8; ++rr)
        EXPECT_EQ(out[static_cast<std::size_t>(rr) * 3], rr);
    }
  });
}

// ---- observability -------------------------------------------------------

TEST(Coll, RingAllreduceByteCounterMatchesAnalyticVolume) {
  // P=8, n divisible by P: each rank sends 2 (P-1) n/P elements in the
  // reduce-scatter + allgather phases -> world total 2 (P-1) n elements.
  constexpr int P = 8;
  constexpr std::size_t n = 1024;
  obs::MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.metrics = &reg;
  World world(P, wcfg);
  world.run([](Comm& c) {
    Collectives cs(c, forced(Algo::Ring));
    std::vector<double> v(n, 1.0);
    cs.allreduce(std::span<double>(v), Op::Sum);
  });
  const std::uint64_t expected = 2ull * (P - 1) * n * sizeof(double);
  EXPECT_EQ(reg.counterValue("coll.allreduce.bytes_sent"), expected);
  EXPECT_EQ(reg.counterValue("coll.allreduce.messages_sent"),
            2ull * (P - 1) * P);
  EXPECT_EQ(reg.counterValue("coll.bytes_sent"), expected);
}

TEST(Coll, TreeAllreduceByteCounterMatchesAnalyticVolume) {
  // Binomial reduce + broadcast: every rank except the root receives the
  // full payload once in each phase -> 2 (P-1) full payloads in total.
  constexpr int P = 8;
  constexpr std::size_t n = 64;
  obs::MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.metrics = &reg;
  World world(P, wcfg);
  world.run([](Comm& c) {
    Collectives cs(c, forced(Algo::Tree));
    std::vector<double> v(n, 1.0);
    cs.allreduce(std::span<double>(v), Op::Sum);
  });
  EXPECT_EQ(reg.counterValue("coll.allreduce.bytes_sent"),
            2ull * (P - 1) * n * sizeof(double));
}

// ---- barrier semantics ---------------------------------------------------

TEST(Coll, BarrierNoRankExitsBeforeAllEnter) {
  constexpr int P = 7;
  std::atomic<int> entered{0};
  World world(P);
  world.run([&](Comm& c) {
    Collectives cs(c);
    for (int round = 0; round < 10; ++round) {
      entered.fetch_add(1);
      cs.barrier();
      EXPECT_GE(entered.load(), P * (round + 1)) << "round " << round;
    }
  });
  World single(1);
  single.run([](Comm& c) { Collectives(c).barrier(); });  // must not hang
}

// ---- fault propagation ---------------------------------------------------

TEST(Coll, DroppedCollectiveMessageSurfacesAsTimeout) {
  WorldConfig cfg;
  runtime::FaultPlan::MessageFault drop;
  drop.action = runtime::FaultPlan::Action::Drop;
  drop.src = 0;
  drop.dst = 1;
  drop.nth = 0;  // first 0 -> 1 message of any flow
  cfg.faults.messageFaults.push_back(drop);
  World world(2, cfg);
  EXPECT_THROW(world.run([](Comm& c) {
                 c.setRecvTimeout(0.05);
                 Collectives cs(c);
                 std::int64_t v = c.rank();
                 // Tree allreduce: rank 1's contribution reaches rank 0,
                 // but the result broadcast 0 -> 1 is dropped; rank 1's
                 // receive must time out instead of deadlocking.
                 cs.allreduce(std::span<std::int64_t>(&v, 1), Op::Sum);
               }),
               runtime::TimeoutError);
}

TEST(Coll, ChecksummedCollectiveDetectsCorruption) {
  WorldConfig cfg;
  runtime::FaultPlan::MessageFault corrupt;
  corrupt.action = runtime::FaultPlan::Action::Corrupt;
  corrupt.src = 0;
  corrupt.dst = 1;
  corrupt.nth = 0;
  cfg.faults.messageFaults.push_back(corrupt);
  World world(2, cfg);
  EXPECT_THROW(world.run([](Comm& c) {
                 CollConfig cc;
                 cc.checksummed = true;
                 Collectives cs(c, cc);
                 std::vector<double> v(8, static_cast<double>(c.rank()));
                 cs.broadcast(0, std::span<double>(v));
               }),
               runtime::CorruptionError);
}

TEST(Coll, StaleCollectiveTrafficIsDrainedCurrentIsKept) {
  World world(2);
  world.run([](Comm& c) {
    // Simulate an aborted collective: a leftover message tagged with a
    // sequence this rank has moved past, plus live traffic of the next
    // collective (a fast peer already inside it).
    const int peer = 1 - c.rank();
    const std::uint64_t aborted = c.nextCollSequence();  // both consume 0
    c.send(peer, runtime::colltag::encode(aborted), nullptr, 0);  // stale
    c.send(peer, 77, nullptr, 0);                            // stale user
    const std::uint64_t next = c.collSequence();  // the upcoming collective
    c.send(peer, runtime::colltag::encode(next), nullptr, 0);  // must survive
    // Sync without a collective (a barrier would advance the sequence):
    // mailbox delivery is FIFO per sender, so once the marker arrives the
    // peer's earlier sends are all present.
    c.sendValue(peer, 99, 1);
    EXPECT_EQ(c.recvValue<int>(peer, 99), 1);
    EXPECT_EQ(c.drainMailbox(), 2u);  // stale coll + stale user discarded
    // The current-sequence message survived the drain.
    EXPECT_NO_THROW(
        c.recv(peer, runtime::colltag::encode(next), nullptr, 0, 1.0));
  });
}

}  // namespace
}  // namespace swlb::coll
