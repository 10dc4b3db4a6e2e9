#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "app/cases.hpp"
#include "io/checkpoint.hpp"

namespace swlb::serve {

namespace {

std::string hash_hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

WireMap event(const char* name) {
  WireMap m;
  m["event"] = WireValue::ofString(name);
  return m;
}

/// Field `key` as an integer in [lo, 2^53] (exact in a wire double); any
/// other value throws, naming the key, before it is converted.
std::uint64_t wire_integer(const WireMap& req, const std::string& key,
                           int lo, const char* op) {
  constexpr double kMax = 9007199254740992.0;  // 2^53
  const double v = wire_number(req, key);
  if (!(v >= lo && v <= kMax) || v != std::floor(v))
    throw Error(std::string(op) + ": '" + key + "' must be an integer in [" +
                std::to_string(lo) + ", 2^53]");
  return static_cast<std::uint64_t>(v);
}

}  // namespace

// ---- Session -----------------------------------------------------------

void Session::request(const std::string& line) { server_->dispatch(*this, line); }

std::optional<std::string> Session::nextEvent() {
  std::unique_lock<std::mutex> lk(m_);
  cv_.wait(lk, [&] { return !outbox_.empty() || closed_; });
  if (outbox_.empty()) return std::nullopt;
  std::string line = std::move(outbox_.front());
  outbox_.pop_front();
  return line;
}

std::optional<std::string> Session::tryNextEvent() {
  std::lock_guard<std::mutex> lk(m_);
  if (outbox_.empty()) return std::nullopt;
  std::string line = std::move(outbox_.front());
  outbox_.pop_front();
  return line;
}

void Session::close() {
  std::lock_guard<std::mutex> lk(m_);
  closed_ = true;
  cv_.notify_all();
}

void Session::push(const std::string& line) {
  std::lock_guard<std::mutex> lk(m_);
  if (closed_) return;
  outbox_.push_back(line);
  cv_.notify_all();
}

// ---- Server ------------------------------------------------------------

Server::Server(const ServerConfig& cfg)
    : cfg_(cfg), queue_(cfg.admission) {
  if (cfg_.workers < 1) throw Error("ServerConfig: workers must be >= 1");
  if (cfg_.quantumSteps < 1)
    throw Error("ServerConfig: quantumSteps must be >= 1");
  if (cfg_.maxResident < 1) cfg_.maxResident = 1;
  if (cfg_.metrics) {
    metrics_ = cfg_.metrics;
  } else {
    ownedMetrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = ownedMetrics_.get();
  }
  paused_ = cfg_.startPaused;
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w)
    workers_.emplace_back([this, w] { workerLoop(w); });
}

Server::~Server() { shutdown(); }

Session& Server::openSession() {
  std::lock_guard<std::mutex> lk(m_);
  const std::uint64_t id = nextSessionId_++;
  auto& slot = sessions_[id];
  slot.reset(new Session(this, id));
  return *slot;
}

void Server::resume() {
  std::lock_guard<std::mutex> lk(m_);
  paused_ = false;
  cv_.notify_all();
}

bool Server::shuttingDown() const {
  std::lock_guard<std::mutex> lk(m_);
  return stop_;
}

void Server::addShutdownHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lk(m_);
  if (stop_) {
    // Shutdown already began: run immediately (outside would be nicer but
    // hooks only close listeners, which is lock-free).
    hook();
    return;
  }
  shutdownHooks_.push_back(std::move(hook));
}

void Server::shutdown() {
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
    hooks.swap(shutdownHooks_);
    cv_.notify_all();
  }
  for (auto& h : hooks) h();
  // Join exactly once; concurrent callers block until the first finishes.
  {
    std::lock_guard<std::mutex> joinLk(joinM_);
    if (!joined_) {
      for (auto& t : workers_) t.join();
      joined_ = true;
      std::lock_guard<std::mutex> lk(m_);
      for (auto& [id, s] : sessions_) s->close();
      // Sweep checkpoint files of jobs that never reached Done/Failed so
      // an aborted daemon leaves zero serve_job*.ckpt debris behind.
      for (auto& [id, j] : jobs_) {
        if (j->onDisk) {
          std::remove(checkpointPath(id).c_str());
          j->onDisk = false;
        }
      }
    }
  }
}

std::vector<JobInfo> Server::snapshot() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, j] : jobs_) {
    JobInfo info;
    info.id = id;
    info.tenant = j->spec.tenant;
    info.state = j->state;
    info.priority = j->spec.priority;
    info.stepsDone = j->stepsDone;
    info.targetSteps = j->spec.steps;
    info.quantaDone = j->quantaDone;
    info.recoveries = j->recoveries;
    info.resident = j->solver != nullptr;
    info.onDisk = j->onDisk;
    out.push_back(std::move(info));
  }
  return out;
}

std::string Server::checkpointPath(std::uint64_t id) const {
  return cfg_.checkpointDir + "/serve_job" + std::to_string(id) + ".ckpt";
}

void Server::emit(std::uint64_t sessionId, const WireMap& ev) {
  const auto it = sessions_.find(sessionId);
  if (it == sessions_.end()) return;
  it->second->push(encode_line(ev));
}

void Server::updateGauges() {
  metrics_->gauge("serve.resident").set(static_cast<double>(residentCount_));
  metrics_->gauge("serve.queue_depth")
      .set(static_cast<double>(queue_.queueDepth()));
  metrics_->gauge("serve.active").set(static_cast<double>(queue_.active()));
}

// ---- protocol dispatch -------------------------------------------------

void Server::dispatch(Session& s, const std::string& line) {
  obs::ScopedBind bind(cfg_.tracer, metrics_, 0);
  WireMap req;
  std::string op;
  try {
    req = decode_line(line);
    op = wire_string(req, "op");
  } catch (const Error& e) {
    WireMap ev = event("error");
    ev["reason"] = WireValue::ofString(e.what());
    s.push(encode_line(ev));
    return;
  }
  try {
    if (op == "submit") {
      handleSubmit(s, req);
    } else if (op == "status") {
      handleStatus(s, req);
    } else if (op == "stats") {
      handleStats(s);
    } else if (op == "shutdown") {
      s.push(encode_line(event("bye")));
      shutdown();
    } else {
      WireMap ev = event("error");
      ev["reason"] = WireValue::ofString("unknown op '" + op + "'");
      s.push(encode_line(ev));
    }
  } catch (const Error& e) {
    WireMap ev = event("error");
    ev["reason"] = WireValue::ofString(e.what());
    s.push(encode_line(ev));
  }
}

void Server::handleSubmit(Session& s, const WireMap& req) {
  JobSpec spec;
  spec.tenant = wire_string(req, "tenant", "default");
  // Wire numbers are finite (decode_line), so the clamp is well defined.
  spec.priority = static_cast<int>(
      std::clamp(wire_number(req, "priority", 1), 1.0,
                 static_cast<double>(JobSpec::kMaxPriority)));
  spec.steps = wire_integer(req, "steps", 1, "submit");
  for (const auto& [k, v] : req)
    if (k.rfind("cfg.", 0) == 0) spec.config.set(k.substr(4), v.asText());
  if (!spec.config.has("case"))
    throw Error("submit: missing 'cfg.case' (which simulation to run)");

  std::lock_guard<std::mutex> lk(m_);
  obs::TraceScope admitScope("serve.admit");
  if (stop_) {
    metrics_->counter("serve.rejected.shutdown").add(1);
    WireMap ev = event("rejected");
    ev["reason"] = WireValue::ofString("shutdown");
    ev["tenant"] = WireValue::ofString(spec.tenant);
    s.push(encode_line(ev));
    return;
  }
  const std::uint64_t id = nextJobId_++;
  const JobQueue::Admission verdict = queue_.admit(id, spec.tenant);
  if (verdict == JobQueue::Admission::RejectTenantCap ||
      verdict == JobQueue::Admission::RejectQueueFull) {
    const char* reason = JobQueue::admission_name(verdict);
    metrics_->counter(std::string("serve.rejected.") + reason).add(1);
    WireMap ev = event("rejected");
    ev["reason"] = WireValue::ofString(reason);
    ev["tenant"] = WireValue::ofString(spec.tenant);
    s.push(encode_line(ev));
    updateGauges();
    return;
  }

  auto job = std::make_unique<Job>();
  job->id = id;
  job->spec = std::move(spec);
  job->sessionId = s.id();
  job->tSubmit = std::chrono::steady_clock::now();
  const bool queued = verdict == JobQueue::Admission::Enqueue;
  job->state = queued ? JobState::Queued : JobState::Waiting;
  const std::string tenant = job->spec.tenant;
  jobs_[id] = std::move(job);
  if (queued) {
    metrics_->counter("serve.queued").add(1);
  } else {
    metrics_->counter("serve.admitted").add(1);
    sched_.add(id);
    cv_.notify_all();
  }
  metrics_->scoped("serve.tenant").scoped(tenant).counter("submitted").add(1);
  WireMap ev = event("accepted");
  ev["job"] = WireValue::ofNumber(static_cast<double>(id));
  ev["queued"] = WireValue::ofNumber(queued ? 1 : 0);
  s.push(encode_line(ev));
  updateGauges();
}

void Server::handleStatus(Session& s, const WireMap& req) {
  const std::uint64_t id = wire_integer(req, "job", 0, "status");
  std::lock_guard<std::mutex> lk(m_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw Error("status: unknown job " + std::to_string(id));
  const Job& j = *it->second;
  WireMap ev = event("status");
  ev["job"] = WireValue::ofNumber(static_cast<double>(id));
  ev["state"] = WireValue::ofString(job_state_name(j.state));
  ev["tenant"] = WireValue::ofString(j.spec.tenant);
  ev["priority"] = WireValue::ofNumber(j.spec.priority);
  ev["steps"] = WireValue::ofNumber(static_cast<double>(j.stepsDone));
  ev["target"] = WireValue::ofNumber(static_cast<double>(j.spec.steps));
  ev["quanta"] = WireValue::ofNumber(static_cast<double>(j.quantaDone));
  ev["recoveries"] = WireValue::ofNumber(j.recoveries);
  ev["resident"] = WireValue::ofNumber(j.solver ? 1 : 0);
  ev["on_disk"] = WireValue::ofNumber(j.onDisk ? 1 : 0);
  s.push(encode_line(ev));
}

void Server::handleStats(Session& s) {
  WireMap ev = event("stats");
  for (const auto& [k, v] : metrics_->counterSnapshot())
    if (k.rfind("serve.", 0) == 0)
      ev[k] = WireValue::ofNumber(static_cast<double>(v));
  for (const auto& [k, v] : metrics_->gaugeSnapshot())
    if (k.rfind("serve.", 0) == 0) ev[k] = WireValue::ofNumber(v);
  s.push(encode_line(ev));
}

// ---- scheduling / workers ----------------------------------------------

bool Server::frontRunnableLocked() const {
  const auto front = sched_.peek();
  if (!front) return false;
  if (jobs_.at(*front)->solver) return true;
  if (residentCount_ < cfg_.maxResident) return true;
  return sched_
      .pickVictim(
          [&](std::uint64_t vid) { return jobs_.at(vid)->solver != nullptr; })
      .has_value();
}

void Server::workerLoop(int index) {
  obs::ScopedBind bind(cfg_.tracer, metrics_, index);
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    cv_.wait(lk, [&] { return stop_ || (!paused_ && frontRunnableLocked()); });
    if (stop_) return;
    const std::uint64_t id = *sched_.next();
    Job& j = *jobs_.at(id);
    if (!j.solver && !makeResident(j, lk)) continue;  // failed to build
    j.state = JobState::Running;
    Solver<D3Q19>* s = j.solver.get();
    const std::uint64_t quantum =
        cfg_.quantumSteps * static_cast<std::uint64_t>(j.spec.priority);
    const std::uint64_t n =
        std::min<std::uint64_t>(quantum, j.spec.steps - j.stepsDone);
    const bool needFirst = !j.firstStepDone;
    const auto tSubmit = j.tSubmit;
    const std::uint64_t preSteps = j.stepsDone;
    lk.unlock();

    bool fault = false;
    std::string reason;
    bool firstDone = false;
    double ttfs = 0;
    {
      obs::TraceScope quantumScope("serve.quantum");
      try {
        if (cfg_.beforeQuantum) cfg_.beforeQuantum(*s, id, preSteps);
        std::uint64_t left = n;
        if (needFirst && left > 0) {
          s->step();
          ttfs = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - tSubmit)
                     .count();
          firstDone = true;
          --left;
        }
        s->run(left);
        if (!s->populationsFinite()) {
          fault = true;
          reason = "population guard: non-finite population";
        }
      } catch (const std::exception& e) {
        fault = true;
        reason = e.what();
      }
    }

    lk.lock();
    if (firstDone && !j.firstStepDone) {
      j.firstStepDone = true;
      j.ttfsSeconds = ttfs;
      metrics_->histogram("serve.ttfs_seconds").observe(ttfs);
    }
    if (fault) {
      handleFault(j, reason);
      continue;
    }
    j.stepsDone = s->stepsDone();
    ++j.quantaDone;
    metrics_->counter("serve.quanta").add(1);
    metrics_->counter("serve.steps").add(n);
    {
      auto tenant = metrics_->scoped("serve.tenant").scoped(j.spec.tenant);
      tenant.counter("quanta").add(1);
      tenant.counter("steps").add(n);
    }
    WireMap prog = event("progress");
    prog["job"] = WireValue::ofNumber(static_cast<double>(id));
    prog["steps"] = WireValue::ofNumber(static_cast<double>(j.stepsDone));
    prog["target"] = WireValue::ofNumber(static_cast<double>(j.spec.steps));
    prog["quanta"] = WireValue::ofNumber(static_cast<double>(j.quantaDone));
    emit(j.sessionId, prog);
    if (j.stepsDone >= j.spec.steps) {
      finishJob(j, io::fnv1a(s->f().data(), s->f().bytes()));
    } else {
      if (cfg_.checkpointQuanta > 0 &&
          j.quantaDone % cfg_.checkpointQuanta == 0)
        saveJobCheckpoint(j);
      j.state = JobState::Waiting;
      sched_.requeue(id);
      cv_.notify_all();
    }
  }
}

bool Server::makeResident(Job& j, std::unique_lock<std::mutex>& lk) {
  SWLB_ASSERT(lk.owns_lock());
  (void)lk;  // held throughout; the parameter documents the contract
  while (residentCount_ >= cfg_.maxResident) {
    const auto victim = sched_.pickVictim(
        [&](std::uint64_t vid) { return jobs_.at(vid)->solver != nullptr; });
    if (!victim) {
      // frontRunnableLocked guaranteed capacity or a victim when this job
      // was popped and the lock was never released since; this branch is
      // defensive — hand the turn back and re-wait.
      sched_.pushFront(j.id);
      return false;
    }
    evict(*jobs_.at(*victim));
  }
  obs::TraceScope resumeScope("serve.resume");
  try {
    app::Case c = app::build_case(j.spec.config);
    j.solver = std::move(c.solver);
    if (j.onDisk) {
      io::load_checkpoint(checkpointPath(j.id), *j.solver);
      j.stepsDone = j.solver->stepsDone();
      metrics_->counter("serve.resumes").add(1);
      WireMap ev = event("resumed");
      ev["job"] = WireValue::ofNumber(static_cast<double>(j.id));
      ev["steps"] = WireValue::ofNumber(static_cast<double>(j.stepsDone));
      emit(j.sessionId, ev);
    }
    ++residentCount_;
    updateGauges();
    return true;
  } catch (const std::exception& e) {
    j.solver.reset();
    failJob(j, std::string("build/resume failed: ") + e.what());
    return false;
  }
}

void Server::evict(Job& victim) {
  obs::TraceScope evictScope("serve.evict");
  saveJobCheckpoint(victim);
  victim.solver.reset();
  --residentCount_;
  metrics_->counter("serve.evictions").add(1);
  metrics_->scoped("serve.tenant")
      .scoped(victim.spec.tenant)
      .counter("evictions")
      .add(1);
  WireMap ev = event("evicted");
  ev["job"] = WireValue::ofNumber(static_cast<double>(victim.id));
  ev["steps"] = WireValue::ofNumber(static_cast<double>(victim.stepsDone));
  emit(victim.sessionId, ev);
  updateGauges();
}

void Server::saveJobCheckpoint(Job& j) {
  SWLB_ASSERT(j.solver);
  io::save_checkpoint(checkpointPath(j.id), *j.solver);
  j.onDisk = true;
  j.lastCkptStep = j.solver->stepsDone();
}

void Server::handleFault(Job& j, const std::string& reason) {
  ++j.recoveries;
  metrics_->counter("serve.faults").add(1);
  metrics_->scoped("serve.tenant")
      .scoped(j.spec.tenant)
      .counter("faults")
      .add(1);
  releaseResidency(j);  // a poisoned state is never saved or reused
  if (j.recoveries > cfg_.maxRecoveries) {
    failJob(j, reason);
    return;
  }
  // Rung 2 of the ladder at job scope: roll back to the newest on-disk
  // state (or a fresh rebuild) and rejoin the rotation.
  j.stepsDone = j.onDisk ? j.lastCkptStep : 0;
  j.state = JobState::Waiting;
  sched_.requeue(j.id);
  metrics_->counter("serve.rollbacks").add(1);
  WireMap ev = event("rollback");
  ev["job"] = WireValue::ofNumber(static_cast<double>(j.id));
  ev["to_step"] = WireValue::ofNumber(static_cast<double>(j.stepsDone));
  ev["recoveries"] = WireValue::ofNumber(j.recoveries);
  ev["reason"] = WireValue::ofString(reason);
  emit(j.sessionId, ev);
  cv_.notify_all();
  updateGauges();
}

void Server::finishJob(Job& j, std::uint64_t stateHash) {
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - j.tSubmit)
                             .count();
  releaseResidency(j);
  if (j.onDisk) {
    std::remove(checkpointPath(j.id).c_str());
    j.onDisk = false;
  }
  j.state = JobState::Done;
  queue_.finish(j.spec.tenant);
  metrics_->counter("serve.jobs_done").add(1);
  metrics_->histogram("serve.job_seconds").observe(seconds);
  metrics_->scoped("serve.tenant")
      .scoped(j.spec.tenant)
      .counter("jobs_done")
      .add(1);
  WireMap ev = event("done");
  ev["job"] = WireValue::ofNumber(static_cast<double>(j.id));
  ev["steps"] = WireValue::ofNumber(static_cast<double>(j.stepsDone));
  ev["seconds"] = WireValue::ofNumber(seconds);
  ev["ttfs_s"] = WireValue::ofNumber(j.ttfsSeconds);
  ev["state_hash"] = WireValue::ofString(hash_hex(stateHash));
  emit(j.sessionId, ev);
  promoteQueued();
  updateGauges();
  cv_.notify_all();
}

void Server::failJob(Job& j, const std::string& reason) {
  releaseResidency(j);
  if (j.onDisk) {
    std::remove(checkpointPath(j.id).c_str());
    j.onDisk = false;
  }
  j.state = JobState::Failed;
  queue_.finish(j.spec.tenant);
  metrics_->counter("serve.jobs_failed").add(1);
  metrics_->scoped("serve.tenant")
      .scoped(j.spec.tenant)
      .counter("jobs_failed")
      .add(1);
  WireMap ev = event("failed");
  ev["job"] = WireValue::ofNumber(static_cast<double>(j.id));
  ev["steps"] = WireValue::ofNumber(static_cast<double>(j.stepsDone));
  ev["reason"] = WireValue::ofString(reason);
  emit(j.sessionId, ev);
  promoteQueued();
  updateGauges();
  cv_.notify_all();
}

void Server::releaseResidency(Job& j) {
  if (j.solver) {
    j.solver.reset();
    --residentCount_;
  }
}

void Server::promoteQueued() {
  while (const auto id = queue_.promote()) {
    Job& p = *jobs_.at(*id);
    p.state = JobState::Waiting;
    sched_.add(*id);
    metrics_->counter("serve.admitted").add(1);
  }
}

}  // namespace swlb::serve
