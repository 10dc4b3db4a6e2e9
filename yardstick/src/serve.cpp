// serve_churn: an in-process serve::Server (2 workers, 2 resident solvers)
// fed by one closed-loop session per host thread.  The jobs are short and
// cache-resident, so admission, scheduling, eviction writes, resume reads
// and case rebuilds dominate: io writes as well as reads here, and core
// runs small grids, the opposite of cavity_bulk.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "app/cases.hpp"
#include "io/checkpoint.hpp"
#include "serve/server.hpp"
#include "yardstick.hpp"

namespace yardstick {

namespace {

namespace fs = std::filesystem;
using swlb::serve::WireMap;
using swlb::serve::WireValue;

constexpr int kWorkers = 2;
constexpr std::size_t kMaxResident = 2;
constexpr std::size_t kMinJobs = 100;  ///< p90 keeps 10 jobs beyond it
const char* const kKinds[] = {"cavity", "channel", "cylinder", "urban"};

struct Spec {
  std::string kind;
  int side = 16;
  int steps = 50;
  std::string key() const {
    return kind + "/" + std::to_string(side) + "/" + std::to_string(steps);
  }
  swlb::app::Config config() const {
    swlb::app::Config c;
    c.set("case", kind);
    for (const char* k : {"nx", "ny", "nz"}) c.set(k, std::to_string(side));
    if (kind == "urban") {
      c.set("block_cells", std::to_string(std::max(2, side / 4)));
      c.set("street_cells", std::to_string(std::max(1, side / 8)));
    }
    return c;
  }
  double lups() const {
    return static_cast<double>(side) * side * side * steps;
  }
};

/// The job stream: blocks holding every kind x side x step-count
/// combination once, each block in a seeded order.  Any long enough
/// prefix carries nearly the same mix, whatever the seed.
std::vector<Spec> jobStream(std::uint64_t seed, bool smoke, std::size_t count) {
  const std::vector<int> sides = smoke ? std::vector<int>{24, 32}
                                       : std::vector<int>{16, 24, 32};
  const std::vector<int> steps = smoke ? std::vector<int>{30, 60}
                                       : std::vector<int>{50, 100, 200};
  std::vector<Spec> block;
  for (const char* kind : kKinds)
    for (int side : sides)
      for (int n : steps) block.push_back({kind, side, n});
  SplitMix rng{seed};
  std::vector<Spec> out;
  while (out.size() < count) {
    for (std::size_t i = block.size() - 1; i > 0; --i)
      std::swap(block[i], block[rng.next() % (i + 1)]);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(count);
  return out;
}

std::string submitLine(const Spec& s, const std::string& tenant) {
  WireMap req;
  req["op"] = WireValue::ofString("submit");
  req["tenant"] = WireValue::ofString(tenant);
  req["steps"] = WireValue::ofNumber(s.steps);
  req["cfg.case"] = WireValue::ofString(s.kind);
  for (const char* k : {"nx", "ny", "nz"})
    req[std::string("cfg.") + k] = WireValue::ofString(std::to_string(s.side));
  if (s.kind == "urban") {
    req["cfg.block_cells"] = WireValue::ofString(std::to_string(std::max(2, s.side / 4)));
    req["cfg.street_cells"] = WireValue::ofString(std::to_string(std::max(1, s.side / 8)));
  }
  return swlb::serve::encode_line(req);
}

struct JobResult {
  std::size_t index = 0;
  bool done = false;
  double latency = 0;  ///< submit call to "done" event, seen by the client
  double ttfs = 0;     ///< submit to first step, as the server reports it
  double tDone = 0;    ///< seconds since the pass started
  std::string hash;
  std::string event;   ///< terminal event name
};

/// One server with its sessions and registry; rebuilt by each set-up.
struct Service {
  std::unique_ptr<swlb::obs::MetricsRegistry> reg =
      std::make_unique<swlb::obs::MetricsRegistry>();
  std::unique_ptr<swlb::serve::Server> server;
  std::vector<swlb::serve::Session*> sessions;
};

/// Submit one job on `session` and block until its terminal event.
JobResult runJob(swlb::serve::Session& session, const std::string& line,
                 Clock::time_point passStart, SpanLog* spans, int slot) {
  JobResult res;
  SpanLog::Scope job(spans, slot, "job", "bench");
  const auto t0 = Clock::now();
  {
    SpanLog::Scope submit(spans, slot, "Session::request", "serve");
    session.request(line);
  }
  for (;;) {
    std::optional<std::string> ev;
    {
      SpanLog::Scope wait(spans, slot, "Session::nextEvent", "serve");
      ev = session.nextEvent();
    }
    if (!ev) {
      res.event = "closed";
      break;
    }
    const WireMap m = swlb::serve::decode_line(*ev);
    const std::string kind = swlb::serve::wire_string(m, "event", "");
    if (kind == "done") {
      res.done = true;
      res.ttfs = swlb::serve::wire_number(m, "ttfs_s", 0);
      res.hash = swlb::serve::wire_string(m, "state_hash", "");
    }
    if (kind == "done" || kind == "failed" || kind == "rejected" ||
        kind == "error") {
      res.event = kind;
      break;
    }
  }
  res.latency = since(t0);
  res.tDone = since(passStart);
  return res;
}

struct Pass {
  std::vector<JobResult> jobs;
  double wall = 0;      ///< pass start to the last terminal event
  double starved = 0;   ///< worker-seconds with fewer jobs in flight than workers
  PhaseTotals phases;   ///< the program's phase totals over the pass
};

/// Worker-seconds in which fewer jobs were in flight than there are
/// workers (the loop's start and drain): idle by construction, not
/// serve overhead.
double starvedWorkerSeconds(const std::vector<JobResult>& jobs, double wall) {
  std::vector<std::pair<double, int>> edges;
  for (const JobResult& j : jobs) {
    edges.push_back({j.tDone - j.latency, +1});
    edges.push_back({j.tDone, -1});
  }
  std::sort(edges.begin(), edges.end());
  double starved = 0, t = 0;
  int inFlight = 0;
  for (const auto& [at, step] : edges) {
    starved += std::max(0, kWorkers - inFlight) * (at - t);
    t = at;
    inFlight += step;
  }
  return starved + kWorkers * (wall - t);
}

/// Closed loop: every session submits its next job from the shared stream
/// when the previous one ends, until `seconds` passed and `minJobs` ended;
/// then the jobs in flight drain.
Pass closedLoop(Service& svc, const std::vector<Spec>& stream, double seconds,
                std::size_t minJobs, const std::string& corrupt, SpanLog* spans) {
  Pass pass;
  std::atomic<std::size_t> next{0}, ended{0};
  std::atomic<bool> stop{false};
  std::mutex m;
  const PhaseTotals start = PhaseTotals::of(*svc.reg);
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t k = 0; k < svc.sessions.size(); ++k)
    clients.emplace_back([&, k] {
      const std::string tenant = "s" + std::to_string(k);
      while (!stop.load()) {
        const std::size_t i = next.fetch_add(1);
        if (i >= stream.size()) break;
        Spec spec = stream[i];
        if (i == 0 && corrupt == "jobs_done") spec.kind = "nosuchcase";
        JobResult res = runJob(*svc.sessions[k], submitLine(spec, tenant), t0,
                               spans, static_cast<int>(k));
        res.index = i;
        ++ended;
        std::lock_guard<std::mutex> lk(m);
        pass.jobs.push_back(std::move(res));
      }
    });
  const double cap = 4 * seconds + 60;
  while ((since(t0) < seconds || ended.load() < minJobs) && since(t0) < cap)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop = true;
  for (auto& c : clients) c.join();
  pass.phases = PhaseTotals::of(*svc.reg).minus(start);
  for (const JobResult& j : pass.jobs) pass.wall = std::max(pass.wall, j.tDone);
  pass.starved = starvedWorkerSeconds(pass.jobs, pass.wall);
  return pass;
}

std::string hashHex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct Reference {
  std::string hash;
  double buildSeconds = 0;
  double stepSeconds = 0;  ///< per step, one thread
};

/// Run every distinct spec on a bare Solver (outside the timed window) on
/// `threads` threads, one spec per thread at a time.
std::map<std::string, Reference> references(const std::vector<Spec>& specs,
                                            int threads) {
  std::map<std::string, Reference> out;
  std::vector<const Spec*> todo;
  for (const Spec& s : specs)
    if (out.emplace(s.key(), Reference{}).second) todo.push_back(&s);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> team;
  for (int t = 0; t < threads; ++t)
    team.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
        const Spec& s = *todo[i];
        Reference& ref = out.at(s.key());  // map nodes are stable
        const auto t0 = Clock::now();
        swlb::app::Case c = swlb::app::build_case(s.config());
        ref.buildSeconds = since(t0);
        const auto t1 = Clock::now();
        c.solver->run(static_cast<std::uint64_t>(s.steps));
        ref.stepSeconds = since(t1) / s.steps;
        ref.hash = hashHex(swlb::io::fnv1a(c.solver->f().data(),
                                           c.solver->f().bytes()));
      }
    });
  for (auto& t : team) t.join();
  return out;
}

std::string mixSummary(const std::vector<Spec>& stream, std::size_t n) {
  std::map<std::string, int> kinds;
  double lups = 0;
  for (std::size_t i = 0; i < n && i < stream.size(); ++i) {
    ++kinds[stream[i].kind];
    lups += stream[i].lups();
  }
  std::string s = std::to_string(n) + " jobs:";
  for (const auto& [k, c] : kinds) s += " " + k + " " + std::to_string(c);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", %.1f M cell updates", lups / 1e6);
  return s + buf;
}

}  // namespace

void runServeChurn(const Options& o, Report& r) {
  const std::size_t minJobs = o.smoke ? 8 : kMinJobs;
  const fs::path dir = fs::path(o.outDir) / "serve_ckpt";
  const std::vector<Spec> stream = jobStream(o.seed, o.smoke, 4096);
  char buf[200];

  // Set-up: start the daemon, open the sessions and run one warm-up job
  // through it.  Untraced runs set up five times and report the median.
  const double beforeSetup = since(processStart());
  std::vector<double> setupSeconds;
  Service svc;
  const int setups = o.smoke || o.trace ? 1 : 5;
  for (int i = 0; i < setups; ++i) {
    svc.server.reset();
    const auto t0 = Clock::now();
    fs::remove_all(dir);
    fs::create_directories(dir);
    svc.reg = std::make_unique<swlb::obs::MetricsRegistry>();
    swlb::serve::ServerConfig cfg;
    cfg.workers = kWorkers;
    cfg.maxResident = kMaxResident;
    cfg.checkpointDir = dir.string();
    cfg.metrics = svc.reg.get();
    svc.server = std::make_unique<swlb::serve::Server>(cfg);
    svc.sessions.clear();
    for (int k = 0; k < o.nproc; ++k)
      svc.sessions.push_back(&svc.server->openSession());
    const JobResult warm = runJob(*svc.sessions[0],
                                  submitLine({"cavity", 16, 20}, "warmup"), t0,
                                  nullptr, 0);
    if (!warm.done) throw std::runtime_error("warm-up job ended " + warm.event);
    setupSeconds.push_back(since(t0));
  }
  std::snprintf(buf, sizeof(buf),
                "%d workers, maxResident %zu, %d closed-loop sessions, "
                "quantum %llu steps",
                kWorkers, kMaxResident, o.nproc,
                static_cast<unsigned long long>(svc.server->config().quantumSteps));
  r.note("serve", buf);

  const double share = o.trace ? 0.5 : 1.0;
  const Pass main = closedLoop(svc, stream, o.seconds * share,
                               static_cast<std::size_t>(minJobs * share),
                               o.corrupt, nullptr);
  SpanLog spans(o.nproc);
  Pass traced;
  if (o.trace)
    traced = closedLoop(svc, stream, o.seconds * share,
                        static_cast<std::size_t>(minJobs * share), "", &spans);
  svc.server->shutdown();
  const double peakRss = peakRssMb();  // before the verification runs

  // ---- output checks -----------------------------------------------------
  if (o.corrupt == "no_debris") std::ofstream(dir / "serve_job999999.ckpt") << "x";
  const auto leftovers =
      std::distance(fs::directory_iterator(dir), fs::directory_iterator());
  r.check("no_debris", leftovers == 0,
          std::to_string(leftovers) + " files left in the checkpoint directory");
  fs::remove_all(dir);

  const Pass* const passes[] = {&main, &traced};
  std::vector<Spec> ran;
  std::size_t doneJobs = 0;
  for (const Pass* p : passes)
    for (const JobResult& j : p->jobs) {
      ran.push_back(stream[j.index]);
      doneJobs += j.done;
    }
  const std::size_t endedJobs = main.jobs.size() + traced.jobs.size();
  r.check("jobs_done", doneJobs == endedJobs,
          std::to_string(doneJobs) + " of " + std::to_string(endedJobs) +
              " jobs done");
  r.note("job_mix", mixSummary(stream, main.jobs.size()));

  const auto tv = Clock::now();
  auto refs = references(ran, o.nproc);
  r.note("timing", "verified " + std::to_string(refs.size()) +
                       " distinct specs in " + std::to_string(since(tv)) + " s");
  if (o.corrupt == "state_hash") refs.begin()->second.hash = "0000000000000000";
  std::size_t matched = 0, compared = 0;
  for (const Pass* p : passes)
    for (const JobResult& j : p->jobs)
      if (j.done) {
        ++compared;
        matched += j.hash == refs.at(stream[j.index].key()).hash;
      }
  r.check("state_hash", matched == compared && compared > 0,
          std::to_string(matched) + " of " + std::to_string(compared) +
              " state hashes equal the bare-Solver run");

  r.attempted = main.jobs.size();
  r.failed = 0;
  for (const JobResult& j : main.jobs) r.failed += !j.done;

  std::vector<double> latency, ttfs;
  double lups = 0;
  for (const JobResult& j : main.jobs)
    if (j.done) {
      latency.push_back(j.latency);
      ttfs.push_back(j.ttfs);
      lups += stream[j.index].lups();
    }

  if (!o.trace) {
    r.set("mlups", lups / main.wall / 1e6, "MLUPS");
    r.set("latency_p90_ms", quantile(latency, 0.9) * 1e3, "ms");
    r.set("setup_s", beforeSetup + median(setupSeconds), "s");
    r.set("peak_rss_mb", peakRss, "MB");
    r.set("jobs_per_s", static_cast<double>(latency.size()) / main.wall, "1/s");
    r.set("ttfs_p50_s", quantile(ttfs, 0.5), "s");
    r.set("ttfs_p90_s", quantile(ttfs, 0.9), "s");
    r.set("job_p50_s", quantile(latency, 0.5), "s");
    r.set("job_p90_s", quantile(latency, 0.9), "s");
    r.set("jobs_timed", static_cast<double>(latency.size()), "count");
    r.set("error_rate",
          static_cast<double>(r.failed) / static_cast<double>(r.attempted), "frac");
    return;
  }

  // Per-layer figures from the traced pass.
  const PhaseTotals& ph = traced.phases;
  const double jobs = static_cast<double>(traced.jobs.size());
  const auto mean = [&](const char* name) {
    return ph.sec(name) / std::max<double>(1, static_cast<double>(ph.n(name))) * 1e3;
  };
  r.set("serve.quantum_ms", mean("serve.quantum"), "ms");
  r.set("serve.resume_ms", mean("serve.resume"), "ms");
  r.set("serve.evict_ms", mean("serve.evict"), "ms");
  r.set("serve.useful_frac",
        ph.sec("serve.quantum") /
            (ph.sec("serve.quantum") + ph.sec("serve.resume") + ph.sec("serve.evict")),
        "frac");
  r.set("serve.evictions_per_job",
        static_cast<double>(ph.counter("serve.evictions")) / jobs, "count");
  r.set("serve.resumes_per_job",
        static_cast<double>(ph.counter("serve.resumes")) / jobs, "count");
  r.set("io.ckpt_save_ms", mean("checkpoint.save"), "ms");
  r.set("io.ckpt_restore_ms", mean("checkpoint.restore"), "ms");
  r.set("io.bytes_written_per_job",
        static_cast<double>(ph.counter("checkpoint.bytes_written")) / jobs, "B");
  r.set("io.bytes_read_per_job",
        static_cast<double>(ph.counter("checkpoint.bytes_read")) / jobs, "B");

  std::map<std::string, std::vector<double>> build;
  std::vector<double> perStep;
  for (const auto& [key, ref] : refs) {
    build[key.substr(0, key.find('/'))].push_back(ref.buildSeconds);
    perStep.push_back(ref.stepSeconds);
  }
  for (const auto& [kind, v] : build)
    r.set("app.build_case_ms." + kind, median(v) * 1e3, "ms");
  r.set("core.step_1t_ms", median(perStep) * 1e3, "ms");

  double tracedLups = 0;
  for (const JobResult& j : traced.jobs) tracedLups += stream[j.index].lups();
  r.set("obs.trace_overhead_frac",
        (lups / main.wall) / (tracedLups / traced.wall) - 1, "frac");

  // Breakdown over worker time while the loop kept every worker supplied:
  // the workers are the resource every job waits for, so their time is
  // what jobs_per_s is made of.  Unattributed is worker time outside the
  // program's spans: waiting for the server mutex that another worker
  // holds through an eviction or resume, and bookkeeping between quanta.
  const double step = ph.sec("step"), save = ph.sec("checkpoint.save"),
               restore = ph.sec("checkpoint.restore");
  reportBreakdown(
      r, o,
      {{"core", step},
       {"io", save + restore},
       {"app", ph.sec("serve.resume") - restore},
       {"serve", ph.sec("serve.quantum") - step + ph.sec("serve.evict") - save}},
      kWorkers * traced.wall - traced.starved, 0.15);
  spans.write(o.outDir + "/spans_serve_churn.json");
}

}  // namespace yardstick
