// Multi-tenant service bench (DESIGN.md §12): can one swlb_serve daemon
// sustain N concurrent clients, and does the round-robin scheduler keep
// the jobs progressing evenly?
//
// Drives in-process Sessions (no socket hop) so the numbers isolate the
// service layer: admission, scheduling, eviction and checkpoint traffic.
// Reported:
//   jobs_per_sec    submitted-to-done throughput over the whole run
//   ttfs_p95_s      p95 submit -> first completed step (serve.ttfs_seconds)
//   e2e_p95_s       p95 submit -> done              (serve.job_seconds)
//   fairness_ratio  max/min completed quanta over unfinished jobs at the
//                   moment the FIRST job completes — strict round-robin
//                   with equal priorities keeps this near 1; a starving
//                   scheduler lets it blow up
//   evictions/resumes/faults/rollbacks from the serve.* counters
//
// Usage: bench_serve [--clients N] [--jobs M] [--steps S] [--faults K]
//                    [--json out.json]
// --faults K poisons the first quantum of K jobs (NaN injection through
// the beforeQuantum hook) to show recovery traffic under load.
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_report.hpp"
#include "serve/server.hpp"

using namespace swlb;
using namespace swlb::serve;

namespace {

struct Options {
  int clients = 32;
  int jobs = 2;       ///< per client
  int steps = 60;     ///< per job (6 quanta at the default quantum below)
  int faults = 0;
  std::string jsonPath;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--clients") opt.clients = std::stoi(next());
    else if (a == "--jobs") opt.jobs = std::stoi(next());
    else if (a == "--steps") opt.steps = std::stoi(next());
    else if (a == "--faults") opt.faults = std::stoi(next());
    else if (a == "--json") opt.jsonPath = next();
    else {
      std::cerr << "usage: bench_serve [--clients N] [--jobs M] [--steps S]"
                   " [--faults K] [--json out.json]\n";
      return 2;
    }
  }

  const std::string dir = "bench_serve_ckpt";
  std::filesystem::create_directories(dir);

  obs::MetricsRegistry reg;
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.quantumSteps = 10;
  cfg.maxResident = 2;  // << active jobs: eviction traffic is part of the run
  cfg.admission.maxActive = 16;
  cfg.admission.maxQueueDepth =
      static_cast<std::size_t>(opt.clients) *
      static_cast<std::size_t>(opt.jobs);
  cfg.admission.maxPerTenant = static_cast<std::size_t>(opt.jobs);
  cfg.checkpointDir = dir;
  cfg.checkpointQuanta = 1;  // rollbacks resume mid-run, not from step 0
  cfg.maxRecoveries = 1;
  cfg.metrics = &reg;

  // Poison the first quantum of jobs 1..K once each: the guard trips, the
  // job rolls back and recovers — other jobs must be unaffected.
  std::mutex poisonM;
  std::set<std::uint64_t> poisoned;
  const auto faultBudget = static_cast<std::uint64_t>(opt.faults);
  cfg.beforeQuantum = [&](Solver<D3Q19>& s, std::uint64_t id, std::uint64_t) {
    {
      std::lock_guard<std::mutex> lk(poisonM);
      if (id > faultBudget || !poisoned.insert(id).second) return;
    }
    // Poison an interior fluid cell (cell 0 is a solid cavity wall, which
    // both collision and totalMass mask out).
    const Grid& g = s.grid();
    s.f()(0, g.nx / 2, g.ny / 2, g.nz / 2) =
        std::numeric_limits<Real>::quiet_NaN();
  };

  Server server(cfg);

  // Fairness probe: when the first job completes, snapshot everyone
  // else's completed-quanta counts.
  std::atomic<bool> firstDone{false};
  std::atomic<double> fairness{0};
  const auto probe = [&] {
    if (firstDone.exchange(true)) return;
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto& info : server.snapshot()) {
      if (info.state == JobState::Done || info.state == JobState::Failed)
        continue;
      if (info.quantaDone == 0) continue;  // still queued / never scheduled
      lo = std::min(lo, info.quantaDone);
      hi = std::max(hi, info.quantaDone);
    }
    fairness = lo == UINT64_MAX ? 1.0
                                : static_cast<double>(hi) /
                                      static_cast<double>(lo);
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<int> done{0}, failed{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(opt.clients));
  for (int c = 0; c < opt.clients; ++c)
    clients.emplace_back([&, c] {
      Session& session = server.openSession();
      for (int j = 0; j < opt.jobs; ++j) {
        WireMap req;
        req["op"] = WireValue::ofString("submit");
        req["tenant"] = WireValue::ofString(std::to_string(c).insert(0, 1, 't'));
        req["steps"] = WireValue::ofNumber(opt.steps);
        req["cfg.case"] = WireValue::ofString("cavity");
        req["cfg.nx"] = WireValue::ofString("12");
        req["cfg.ny"] = WireValue::ofString("12");
        req["cfg.nz"] = WireValue::ofString("12");
        session.request(encode_line(req));
      }
      int finished = 0;
      while (finished < opt.jobs) {
        const auto line = session.nextEvent();
        if (!line) break;
        const WireMap ev = decode_line(*line);
        const std::string kind = wire_string(ev, "event", "");
        if (kind == "done") {
          probe();
          ++done;
          ++finished;
        } else if (kind == "failed" || kind == "rejected" ||
                   kind == "error") {
          ++failed;
          ++finished;
          std::cerr << "client " << c << ": " << *line << "\n";
        }
      }
      session.close();
    });
  for (auto& t : clients) t.join();
  const double elapsed = seconds_since(t0);
  server.shutdown();
  std::filesystem::remove_all(dir);

  const int total = opt.clients * opt.jobs;
  const double jobsPerSec = elapsed > 0 ? done / elapsed : 0;
  const auto ttfs = reg.histogramSummary("serve.ttfs_seconds");
  const auto e2e = reg.histogramSummary("serve.job_seconds");

  std::printf("bench_serve: %d clients x %d jobs (%d steps each)\n",
              opt.clients, opt.jobs, opt.steps);
  std::printf("%-22s %12s\n", "metric", "value");
  std::printf("%-22s %12d\n", "jobs_done", done.load());
  std::printf("%-22s %12d\n", "jobs_failed", failed.load());
  std::printf("%-22s %12.2f\n", "jobs_per_sec", jobsPerSec);
  std::printf("%-22s %12.4f\n", "ttfs_p95_s", ttfs.p95);
  std::printf("%-22s %12.4f\n", "e2e_p95_s", e2e.p95);
  std::printf("%-22s %12.2f\n", "fairness_ratio", fairness.load());
  std::printf("%-22s %12llu\n", "evictions",
              static_cast<unsigned long long>(
                  reg.counterValue("serve.evictions")));
  std::printf("%-22s %12llu\n", "resumes",
              static_cast<unsigned long long>(
                  reg.counterValue("serve.resumes")));
  std::printf("%-22s %12llu\n", "faults",
              static_cast<unsigned long long>(reg.counterValue("serve.faults")));
  std::printf("%-22s %12llu\n", "rollbacks",
              static_cast<unsigned long long>(
                  reg.counterValue("serve.rollbacks")));

  if (!opt.jsonPath.empty()) {
    obs::BenchReport report("bench_serve");
    auto& row = report.add("serve");
    row.set("clients", opt.clients);
    row.set("jobs_per_client", opt.jobs);
    row.set("steps_per_job", opt.steps);
    row.set("jobs_done", done);
    row.set("jobs_failed", failed);
    row.set("jobs_per_sec", jobsPerSec);
    row.set("ttfs_p95_s", ttfs.p95);
    row.set("e2e_p95_s", e2e.p95);
    row.set("fairness_ratio", fairness);
    row.addMetrics(reg);
    report.write(opt.jsonPath);
    std::cout << "wrote " << opt.jsonPath << "\n";
  }

  return done == total ? 0 : 1;
}
