// swlb::serve — the multi-tenant simulation service (DESIGN.md §12).
//
// Covers the wire grammar, the admission/scheduling/eviction units, and
// the service-level guarantees the subsystem exists for: deterministic
// admission verdicts, bit-identical evict -> resume continuation, per-job
// fault isolation, and zero checkpoint debris after shutdown.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/cases.hpp"
#include "io/checkpoint.hpp"
#include "serve/queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "serve/wire.hpp"

using namespace swlb;
using namespace swlb::serve;

namespace {

/// Scratch directory per test; removed (with contents) on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name) : path(name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string path;
};

int countCheckpointFiles(const std::string& dir) {
  int n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().filename().string().rfind("serve_job", 0) == 0) ++n;
  return n;
}

WireMap submitCavity(const std::string& tenant, int steps, int n = 10,
                     int priority = 1) {
  WireMap req;
  req["op"] = WireValue::ofString("submit");
  req["tenant"] = WireValue::ofString(tenant);
  req["steps"] = WireValue::ofNumber(steps);
  req["priority"] = WireValue::ofNumber(priority);
  req["cfg.case"] = WireValue::ofString("cavity");
  req["cfg.nx"] = WireValue::ofString(std::to_string(n));
  req["cfg.ny"] = WireValue::ofString(std::to_string(n));
  req["cfg.nz"] = WireValue::ofString(std::to_string(n));
  return req;
}

/// Reference hash: the same cavity case run start-to-finish on a single
/// solver with no service in the way.
std::string referenceHash(int n, std::uint64_t steps) {
  app::Config cfg;
  cfg.set("case", "cavity");
  cfg.set("nx", std::to_string(n));
  cfg.set("ny", std::to_string(n));
  cfg.set("nz", std::to_string(n));
  app::Case c = app::build_case(cfg);
  c.solver->run(steps);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    io::fnv1a(c.solver->f().data(), c.solver->f().bytes())));
  return buf;
}

/// Events drained from a session, filterable by kind.
struct Drained {
  std::vector<WireMap> all;
  std::vector<WireMap> ofKind(const std::string& kind) const {
    std::vector<WireMap> out;
    for (const auto& ev : all)
      if (wire_string(ev, "event", "") == kind) out.push_back(ev);
    return out;
  }
};

/// Read events until `count` jobs reached done/failed; "error" events
/// fail the test.
Drained drainUntilFinished(Session& session, int count) {
  Drained d;
  int finished = 0;
  while (finished < count) {
    const auto line = session.nextEvent();
    if (!line) break;
    WireMap ev = decode_line(*line);
    const std::string kind = wire_string(ev, "event", "");
    EXPECT_NE(kind, "error") << *line;
    if (kind == "done" || kind == "failed") ++finished;
    d.all.push_back(std::move(ev));
  }
  EXPECT_EQ(finished, count);
  return d;
}

}  // namespace

// ---- wire grammar ------------------------------------------------------

TEST(Wire, RoundTripPreservesTypesAndEscapes) {
  WireMap m;
  m["op"] = WireValue::ofString("submit");
  m["text"] = WireValue::ofString("a \"b\"\n\tc\\d");
  m["num"] = WireValue::ofNumber(0.25);
  m["count"] = WireValue::ofNumber(1234567);
  m["flag"] = WireValue::ofBool(true);
  const std::string line = encode_line(m);
  const WireMap back = decode_line(line);
  EXPECT_EQ(wire_string(back, "op"), "submit");
  EXPECT_EQ(wire_string(back, "text"), "a \"b\"\n\tc\\d");
  EXPECT_DOUBLE_EQ(wire_number(back, "num"), 0.25);
  EXPECT_DOUBLE_EQ(wire_number(back, "count"), 1234567);
  EXPECT_DOUBLE_EQ(wire_number(back, "flag"), 1);
  // Byte-stable: encoding the decoded map reproduces the line.
  EXPECT_EQ(encode_line(back), line);
}

TEST(Wire, IntegersPrintWithoutExponent) {
  WireMap m;
  m["steps"] = WireValue::ofNumber(1e6);
  EXPECT_EQ(encode_line(m), "{\"steps\":1000000}");
}

TEST(Wire, RejectsNestingAndGarbage) {
  EXPECT_THROW(decode_line("{\"a\":{\"b\":1}}"), Error);
  EXPECT_THROW(decode_line("{\"a\":[1,2]}"), Error);
  EXPECT_THROW(decode_line("{\"a\":1} trailing"), Error);
  EXPECT_THROW(decode_line("not json"), Error);
  EXPECT_THROW(decode_line("{\"a\":}"), Error);
}

TEST(Wire, MissingKeyThrowsFallbackDoesNot) {
  const WireMap m = decode_line("{\"a\":\"x\"}");
  EXPECT_THROW(wire_string(m, "b"), Error);
  EXPECT_EQ(wire_string(m, "b", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(wire_number(m, "b", 7), 7);
}

TEST(Wire, NonFiniteNumbersEncodeAsNullAndDecode) {
  WireMap m;
  m["nan"] = WireValue::ofNumber(std::numeric_limits<double>::quiet_NaN());
  m["pinf"] = WireValue::ofNumber(std::numeric_limits<double>::infinity());
  m["ninf"] = WireValue::ofNumber(-std::numeric_limits<double>::infinity());
  const std::string line = encode_line(m);
  EXPECT_EQ(line, "{\"nan\":null,\"ninf\":null,\"pinf\":null}");
  WireMap back;
  ASSERT_NO_THROW(back = decode_line(line));
  for (const char* key : {"nan", "pinf", "ninf"})
    EXPECT_EQ(wire_string(back, key), "") << key;  // null decodes to ""
}

TEST(Wire, RejectsNumbersOutsideTheJsonGrammar) {
  for (const char* num : {"0x10", "+3", ".5", "1.", "infinity", "1e999"}) {
    SCOPED_TRACE(num);
    EXPECT_THROW(decode_line(std::string("{\"a\":") + num + "}"), Error);
  }
  EXPECT_DOUBLE_EQ(wire_number(decode_line("{\"a\":-0.5e-3}"), "a"), -0.5e-3);
}

TEST(Wire, RejectsDuplicateKeysAndRawControlCharacters) {
  EXPECT_THROW(decode_line("{\"a\":1,\"a\":2}"), Error);
  EXPECT_THROW(decode_line("{\"a\":\"x\ty\"}"), Error);
  EXPECT_EQ(wire_string(decode_line("{\"a\":\"x\\ty\"}"), "a"), "x\ty");
}

TEST(LineStream, WriteToVanishedPeerReturnsFalse) {
  // A client that disconnects while the daemon still streams its job's
  // events must cost that stream only, not raise SIGPIPE in the daemon.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineStream writer(fds[0]);
  ::close(fds[1]);
  EXPECT_FALSE(writer.writeLine("{\"event\":\"progress\"}"));
}

TEST(LineStream, OverCapLineEndsTheConnection) {
  // A peer that keeps its socket open and never sends a newline must not
  // hold readLine (and the daemon's memory) forever.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineStream reader(fds[0]);
  std::promise<void> release;
  std::thread writer([fd = fds[1], released = release.get_future()] {
    const std::string junk(64 * 1024, 'x');
    for (std::size_t sent = 0; sent <= kMaxLineBytes + junk.size();) {
      const ssize_t n = ::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
      if (n <= 0) break;  // the reader shut its side down
      sent += static_cast<std::size_t>(n);
    }
    released.wait();  // the connection stays open until the test ends
    ::close(fd);
  });
  auto line = std::async(std::launch::async, [&] { return reader.readLine(); });
  const bool ended =
      line.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(ended) << "readLine still buffering past " << kMaxLineBytes
                     << " bytes";
  release.set_value();
  EXPECT_FALSE(line.get().has_value());
  EXPECT_FALSE(reader.readLine().has_value());  // the read side stays shut
  writer.join();
}

namespace {

/// A number of /proc/self/status: "VmSize" (KiB), "Threads"; -1 when it
/// cannot be read.
long procStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind(field + ":", 0) == 0)
      return std::stol(line.substr(field.size() + 1));
  return -1;
}

}  // namespace

TEST(ServeUnix, FinishedConnectionsReleaseTheirThreads) {
  // A daemon with many short clients must hold threads (and their ~8 MiB
  // stacks) only for live connections, not for every connection since
  // start-up.
  ScratchDir dir("swlb_serve_reap");
  const std::string path = dir.path + "/daemon.sock";
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.checkpointDir = dir.path;
  Server server(cfg);
  std::thread daemon([&] { serve_unix(server, path); });
  for (int i = 0; i < 500 && !std::filesystem::exists(path); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // One request per connection, each waited out: the client returns once
  // the connection's threads have exited, so no two connections overlap.
  const long idleThreads = procStatus("Threads");
  WireMap req;
  req["op"] = WireValue::ofString("stats");
  auto oneRequest = [&] {
    {
      LineStream s(connect_unix(path));
      ASSERT_TRUE(s.writeLine(encode_line(req)));
      const auto reply = s.readLine();
      ASSERT_TRUE(reply.has_value());
      EXPECT_EQ(wire_string(decode_line(*reply), "event", ""), "stats");
    }
    for (int i = 0; i < 2000 && procStatus("Threads") > idleThreads; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  oneRequest();  // first-use allocations stay out of the measurement
  const long before = procStatus("VmSize");
  ASSERT_GT(before, 0);
  constexpr int kConnections = 40;
  for (int i = 0; i < kConnections; ++i) oneRequest();
  const long grownKiB = procStatus("VmSize") - before;
  server.shutdown();
  daemon.join();
  // Kept threads would add at least 8 MiB each; a daemon that joins a
  // finished connection before it starts the next reuses that stack.
  EXPECT_LT(grownKiB, kConnections * 8 * 1024 / 4)
      << "VmSize grew " << grownKiB << " KiB over " << kConnections
      << " one-request connections";
}

// ---- admission control -------------------------------------------------

TEST(JobQueue, VerdictOrderAndTenantAccounting) {
  JobQueue::Limits lim;
  lim.maxActive = 1;
  lim.maxQueueDepth = 2;
  lim.maxPerTenant = 3;
  JobQueue q(lim);
  EXPECT_EQ(q.admit(1, "a"), JobQueue::Admission::Admit);
  EXPECT_EQ(q.admit(2, "a"), JobQueue::Admission::Enqueue);
  EXPECT_EQ(q.admit(3, "a"), JobQueue::Admission::Enqueue);
  // Tenant cap fires before the queue-full check.
  EXPECT_EQ(q.admit(4, "a"), JobQueue::Admission::RejectTenantCap);
  // Another tenant is under its cap but the backlog is full.
  EXPECT_EQ(q.admit(5, "b"), JobQueue::Admission::RejectQueueFull);
  EXPECT_EQ(q.active(), 1u);
  EXPECT_EQ(q.queueDepth(), 2u);
  EXPECT_EQ(q.inFlight("a"), 3u);
  EXPECT_EQ(q.inFlight("b"), 0u);

  // No promotion while the active set is full.
  EXPECT_FALSE(q.promote().has_value());
  q.finish("a");
  const auto p = q.promote();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, 2u);  // FIFO
  EXPECT_EQ(q.queueDepth(), 1u);
  // Queued jobs still count against their tenant until they finish.
  EXPECT_EQ(q.inFlight("a"), 2u);
}

TEST(JobQueue, RejectsZeroActiveLimit) {
  JobQueue::Limits lim;
  lim.maxActive = 0;
  EXPECT_THROW(JobQueue q(lim), Error);
}

// ---- scheduler ---------------------------------------------------------

TEST(Scheduler, StrictRoundRobin) {
  Scheduler s;
  s.add(1);
  s.add(2);
  s.add(3);
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 6; ++i) {
    const auto id = s.next();
    ASSERT_TRUE(id.has_value());
    order.push_back(*id);
    s.requeue(*id);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 1, 2, 3}));
}

TEST(Scheduler, VictimIsNearestTheBack) {
  Scheduler s;
  s.add(1);
  s.add(2);
  s.add(3);
  // The back-most eligible job is picked: it just ran, so it waits the
  // longest until its next turn.
  const auto v1 = s.pickVictim([](std::uint64_t id) { return id != 3; });
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(*v1, 2u);
  const auto v2 = s.pickVictim([](std::uint64_t) { return true; });
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v2, 3u);
  EXPECT_FALSE(s.pickVictim([](std::uint64_t) { return false; }).has_value());
  s.remove(2);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(*s.next(), 1u);
  EXPECT_EQ(*s.next(), 3u);
}

// ---- protocol: deterministic admission --------------------------------

TEST(Serve, AdmissionVerdictsOverTheProtocol) {
  ScratchDir dir("serve_admission_test");
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.quantumSteps = 4;
  cfg.checkpointDir = dir.path;
  cfg.admission.maxActive = 1;
  cfg.admission.maxQueueDepth = 2;
  cfg.admission.maxPerTenant = 3;
  cfg.startPaused = true;  // verdicts must not depend on worker progress
  Server server(cfg);
  Session& s = server.openSession();

  for (int i = 0; i < 4; ++i)
    s.request(encode_line(submitCavity("acme", 8, 8)));
  s.request(encode_line(submitCavity("other", 8, 8)));

  // Burst verdicts, in submit order.
  std::vector<std::string> got;
  for (int i = 0; i < 5; ++i) {
    const auto line = s.nextEvent();
    ASSERT_TRUE(line.has_value());
    const WireMap ev = decode_line(*line);
    const std::string kind = wire_string(ev, "event");
    got.push_back(kind == "rejected"
                      ? kind + ":" + wire_string(ev, "reason")
                      : kind + ":q" +
                            std::to_string(static_cast<int>(
                                wire_number(ev, "queued"))));
  }
  EXPECT_EQ(got,
            (std::vector<std::string>{"accepted:q0", "accepted:q1",
                                      "accepted:q1", "rejected:tenant_cap",
                                      "rejected:queue_full"}));

  // Released, the three admitted/queued jobs all run to completion.
  server.resume();
  drainUntilFinished(s, 3);
  int done = 0;
  for (const auto& info : server.snapshot())
    done += info.state == JobState::Done;
  EXPECT_EQ(done, 3);
  EXPECT_EQ(server.metrics().counterValue("serve.jobs_done"), 3u);
  EXPECT_EQ(server.metrics().counterValue("serve.rejected.tenant_cap"), 1u);
  EXPECT_EQ(server.metrics().counterValue("serve.rejected.queue_full"), 1u);
  server.shutdown();
  EXPECT_EQ(countCheckpointFiles(dir.path), 0);
}

// ---- evict -> resume bit-identity -------------------------------------

TEST(Serve, EvictResumeIsBitIdentical) {
  ScratchDir dir("serve_evict_test");
  constexpr int kN = 10;
  constexpr std::uint64_t kSteps = 24;
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.quantumSteps = 4;  // 6 quanta per job -> plenty of evictions
  cfg.maxResident = 1;   // two active jobs MUST thrash through eviction
  cfg.checkpointDir = dir.path;
  // Both jobs are admitted before any quantum runs; otherwise a fast
  // kernel can finish "a" before "b" arrives and nothing is evicted.
  cfg.startPaused = true;
  Server server(cfg);
  Session& s = server.openSession();
  s.request(encode_line(submitCavity("a", kSteps, kN)));
  s.request(encode_line(submitCavity("b", kSteps, kN)));
  server.resume();
  const Drained d = drainUntilFinished(s, 2);

  const auto dones = d.ofKind("done");
  ASSERT_EQ(dones.size(), 2u);
  const std::string ref = referenceHash(kN, kSteps);
  for (const auto& ev : dones) {
    EXPECT_EQ(wire_string(ev, "state_hash"), ref);
    EXPECT_DOUBLE_EQ(wire_number(ev, "steps"), kSteps);
  }
  // The identity must have been proven THROUGH eviction traffic, not by
  // two jobs that happened to fit side by side.
  EXPECT_GT(server.metrics().counterValue("serve.evictions"), 0u);
  EXPECT_GT(server.metrics().counterValue("serve.resumes"), 0u);
  EXPECT_FALSE(d.ofKind("evicted").empty());
  EXPECT_FALSE(d.ofKind("resumed").empty());
  server.shutdown();
  EXPECT_EQ(countCheckpointFiles(dir.path), 0);
}

// ---- fault isolation ---------------------------------------------------

TEST(Serve, FaultIsolationOneJobFailsOthersFinish) {
  ScratchDir dir("serve_fault_test");
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.quantumSteps = 4;
  cfg.maxResident = 2;
  cfg.checkpointDir = dir.path;
  cfg.maxRecoveries = 0;  // first fault is fatal for the job
  cfg.beforeQuantum = [](Solver<D3Q19>& s, std::uint64_t id, std::uint64_t) {
    if (id != 1) return;
    const Grid& g = s.grid();
    s.f()(0, g.nx / 2, g.ny / 2, g.nz / 2) =
        std::numeric_limits<Real>::quiet_NaN();
  };
  Server server(cfg);
  Session& s = server.openSession();
  s.request(encode_line(submitCavity("victim", 16)));
  s.request(encode_line(submitCavity("bystander", 16)));
  s.request(encode_line(submitCavity("bystander", 16)));
  const Drained d = drainUntilFinished(s, 3);

  const auto failures = d.ofKind("failed");
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_DOUBLE_EQ(wire_number(failures[0], "job"), 1);
  EXPECT_NE(wire_string(failures[0], "reason").find("guard"),
            std::string::npos);
  EXPECT_EQ(d.ofKind("done").size(), 2u);
  EXPECT_EQ(server.metrics().counterValue("serve.jobs_failed"), 1u);
  EXPECT_EQ(server.metrics().counterValue("serve.jobs_done"), 2u);
  // The daemon survived: it still answers and admits new work.
  EXPECT_FALSE(server.shuttingDown());
  s.request(encode_line(submitCavity("late", 4)));
  drainUntilFinished(s, 1);
  server.shutdown();
  EXPECT_EQ(countCheckpointFiles(dir.path), 0);
}

TEST(Serve, FaultRecoveryRollsBackAndStaysBitIdentical) {
  ScratchDir dir("serve_recovery_test");
  constexpr int kN = 10;
  constexpr std::uint64_t kSteps = 24;
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.quantumSteps = 4;
  cfg.maxResident = 2;
  cfg.checkpointDir = dir.path;
  cfg.checkpointQuanta = 1;  // every quantum leaves a rollback point
  cfg.maxRecoveries = 2;
  // Poison job 1 exactly once, on its fourth quantum (12 steps done).
  std::set<std::uint64_t> poisoned;
  cfg.beforeQuantum = [&poisoned](Solver<D3Q19>& s, std::uint64_t id,
                                  std::uint64_t stepsDone) {
    if (id != 1 || stepsDone != 12 || !poisoned.insert(id).second) return;
    const Grid& g = s.grid();
    s.f()(0, g.nx / 2, g.ny / 2, g.nz / 2) =
        std::numeric_limits<Real>::quiet_NaN();
  };
  Server server(cfg);
  Session& s = server.openSession();
  s.request(encode_line(submitCavity("a", kSteps, kN)));
  const Drained d = drainUntilFinished(s, 1);

  const auto rollbacks = d.ofKind("rollback");
  ASSERT_EQ(rollbacks.size(), 1u);
  EXPECT_DOUBLE_EQ(wire_number(rollbacks[0], "to_step"), 12);
  const auto dones = d.ofKind("done");
  ASSERT_EQ(dones.size(), 1u);
  // The rolled-back rerun lands on the exact same final state.
  EXPECT_EQ(wire_string(dones[0], "state_hash"), referenceHash(kN, kSteps));
  EXPECT_EQ(server.metrics().counterValue("serve.faults"), 1u);
  EXPECT_EQ(server.metrics().counterValue("serve.rollbacks"), 1u);
  server.shutdown();
  EXPECT_EQ(countCheckpointFiles(dir.path), 0);
}

// ---- shutdown hygiene --------------------------------------------------

TEST(Serve, MidRunShutdownLeavesNoCheckpointDebris) {
  ScratchDir dir("serve_debris_test");
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.quantumSteps = 2;
  cfg.maxResident = 1;  // forces eviction checkpoints onto disk
  cfg.checkpointDir = dir.path;
  cfg.checkpointQuanta = 1;
  {
    Server server(cfg);
    Session& s = server.openSession();
    for (int i = 0; i < 3; ++i)
      s.request(encode_line(submitCavity(std::to_string(i).insert(0, 1, 't'), 1000)));
    // Wait until checkpoint files actually exist, then abort mid-run.
    for (int spin = 0; spin < 2000 && countCheckpointFiles(dir.path) == 0;
         ++spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(countCheckpointFiles(dir.path), 0);
    server.shutdown();
    EXPECT_EQ(countCheckpointFiles(dir.path), 0);
  }  // destructor-run shutdown must be an idempotent no-op
  EXPECT_EQ(countCheckpointFiles(dir.path), 0);
}

// ---- observability ----------------------------------------------------

TEST(Serve, StatusStatsAndTenantAccounting) {
  ScratchDir dir("serve_obs_test");
  obs::MetricsRegistry reg;
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.quantumSteps = 4;
  cfg.checkpointDir = dir.path;
  cfg.metrics = &reg;
  Server server(cfg);
  Session& s = server.openSession();
  s.request(encode_line(submitCavity("acme", 8)));
  s.request(encode_line(submitCavity("acme", 8)));
  drainUntilFinished(s, 2);

  // status reflects the finished job.
  s.request("{\"op\":\"status\",\"job\":1}");
  const auto line = s.nextEvent();
  ASSERT_TRUE(line.has_value());
  const WireMap st = decode_line(*line);
  EXPECT_EQ(wire_string(st, "event"), "status");
  EXPECT_EQ(wire_string(st, "state"), "done");
  EXPECT_EQ(wire_string(st, "tenant"), "acme");
  EXPECT_DOUBLE_EQ(wire_number(st, "steps"), 8);

  // stats exposes the serve.* counters over the wire.
  s.request("{\"op\":\"stats\"}");
  const auto statsLine = s.nextEvent();
  ASSERT_TRUE(statsLine.has_value());
  const WireMap stats = decode_line(*statsLine);
  EXPECT_DOUBLE_EQ(wire_number(stats, "serve.jobs_done"), 2);

  // Per-tenant accounting flowed through the scoped registry view.
  EXPECT_EQ(reg.counterValue("serve.tenant.acme.submitted"), 2u);
  EXPECT_EQ(reg.counterValue("serve.tenant.acme.jobs_done"), 2u);
  EXPECT_GT(reg.counterValue("serve.tenant.acme.steps"), 0u);
  // Time-to-first-step was recorded for both jobs.
  EXPECT_EQ(reg.histogramSummary("serve.ttfs_seconds").count, 2u);

  // Unknown ops and bad lines answer with an error event, not a crash.
  s.request("{\"op\":\"frobnicate\"}");
  const auto err1 = s.nextEvent();
  ASSERT_TRUE(err1.has_value());
  EXPECT_EQ(wire_string(decode_line(*err1), "event"), "error");
  s.request("this is not a protocol line");
  const auto err2 = s.nextEvent();
  ASSERT_TRUE(err2.has_value());
  EXPECT_EQ(wire_string(decode_line(*err2), "event"), "error");
  server.shutdown();
}

// ---- malformed numbers -------------------------------------------------

TEST(Serve, OutOfRangeNumbersAreErrorsNotJobs) {
  // Wire numbers are doubles: each integer field is range-checked before
  // it is converted, and a case extent below one cell fails its job.
  ScratchDir dir("serve_numbers_test");
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.checkpointDir = dir.path;
  Server server(cfg);
  Session& s = server.openSession();
  const std::string cavity = ",\"cfg.case\":\"cavity\",\"cfg.nx\":\"6\","
                             "\"cfg.ny\":\"6\",\"cfg.nz\":\"6\"}";
  const std::pair<std::string, std::string> bad[] = {
      {"steps", "{\"op\":\"submit\",\"steps\":1e30" + cavity},
      {"steps", "{\"op\":\"submit\",\"steps\":inf" + cavity},
      {"steps", "{\"op\":\"submit\",\"steps\":1.8446744073709552e19" + cavity},
      {"steps", "{\"op\":\"submit\",\"steps\":0.5" + cavity},
      {"priority", "{\"op\":\"submit\",\"steps\":4,\"priority\":inf" + cavity},
      {"priority", "{\"op\":\"submit\",\"steps\":4,\"priority\":-inf" + cavity},
      {"job", "{\"op\":\"status\",\"job\":-1}"},
      {"job", "{\"op\":\"status\",\"job\":1e30}"},
      {"job", "{\"op\":\"status\",\"job\":inf}"},
  };
  for (const auto& [key, line] : bad) {
    SCOPED_TRACE(line);
    s.request(line);
    const auto reply = s.nextEvent();
    ASSERT_TRUE(reply.has_value());
    const WireMap ev = decode_line(*reply);
    EXPECT_EQ(wire_string(ev, "event"), "error");
    EXPECT_NE(wire_string(ev, "reason", "").find("'" + key + "'"),
              std::string::npos);
  }

  for (const char* extent : {"0", "-3"}) {
    WireMap req = submitCavity("acme", 4, 6);
    req["cfg.nx"] = WireValue::ofString(extent);
    s.request(encode_line(req));
  }
  const Drained d = drainUntilFinished(s, 2);
  EXPECT_TRUE(d.ofKind("done").empty());
  const auto failed = d.ofKind("failed");
  ASSERT_EQ(failed.size(), 2u);
  for (const WireMap& ev : failed)
    EXPECT_NE(wire_string(ev, "reason").find("nx"), std::string::npos)
        << wire_string(ev, "reason");
  server.shutdown();
}

// ---- priorities --------------------------------------------------------

TEST(Serve, PriorityScalesQuantumNotTurnOrder) {
  ScratchDir dir("serve_priority_test");
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.quantumSteps = 2;
  cfg.maxResident = 2;
  cfg.checkpointDir = dir.path;
  cfg.startPaused = true;
  Server server(cfg);
  Session& s = server.openSession();
  s.request(encode_line(submitCavity("lo", 16, 10, 1)));
  s.request(encode_line(submitCavity("hi", 16, 10, 4)));
  server.resume();
  drainUntilFinished(s, 2);
  std::uint64_t quantaLo = 0, quantaHi = 0;
  for (const auto& info : server.snapshot()) {
    if (info.tenant == "lo") quantaLo = info.quantaDone;
    if (info.tenant == "hi") quantaHi = info.quantaDone;
  }
  // 16 steps at 2/turn -> 8 quanta; at 8/turn -> 2 quanta.  The high
  // priority job needs fewer turns, the low one still got all of its own.
  EXPECT_EQ(quantaLo, 8u);
  EXPECT_EQ(quantaHi, 2u);
  server.shutdown();
}
