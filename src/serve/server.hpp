// `swlb::serve` — the multi-tenant simulation service (DESIGN.md §12).
//
// A Server owns a pool of worker threads that multiplex many submitted
// simulation jobs over a bounded set of resident solver instances:
//
//   * admission control (JobQueue): bounded active set, bounded backlog,
//     per-tenant in-flight caps — saturation queues, overflow rejects;
//   * fair-share scheduling (Scheduler): strict round-robin over active
//     jobs, one step quantum per turn, priorities scale quantum length;
//   * checkpoint-backed eviction: when more jobs are active than
//     `maxResident` solver instances fit, the least-soon-to-run resident
//     job is saved to a v2 checkpoint and its solver freed; the next
//     scheduling turn rebuilds the case and restores the checkpoint —
//     a bit-identical continuation (proven by test_serve);
//   * per-job crash isolation, following ResilientRunner's rollback
//     ladder at single-job scope: a quantum that throws or leaves a
//     non-finite population rolls just that job back to its newest on-disk
//     state (or a fresh rebuild), bounded by `maxRecoveries`, and never
//     takes down the daemon or other jobs;
//   * progress streaming: every lifecycle transition is pushed to the
//     submitting session as a flat JSON event line, and per-tenant
//     accounting flows through MetricsRegistry::scoped("serve.tenant").
//
// Thread model: client/reader threads call Session::request (dispatch
// holds the server mutex briefly); workers hold the mutex for scheduling
// decisions and eviction/resume I/O but release it for the quantum
// itself, so quanta from different jobs overlap across workers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "obs/context.hpp"
#include "serve/job.hpp"
#include "serve/queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/wire.hpp"

namespace swlb::serve {

class Server;

/// One client connection: requests go in (dispatched on the calling
/// thread), event lines come out of a thread-safe outbox.  Created by
/// Server::openSession; lives until the Server is destroyed.
class Session {
 public:
  std::uint64_t id() const { return id_; }

  /// Parse + dispatch one protocol line; responses and later lifecycle
  /// events appear in the outbox.  Malformed lines produce an "error"
  /// event instead of throwing.
  void request(const std::string& line);

  /// Blocking pop of the next event line; std::nullopt once the session
  /// is closed and drained.
  std::optional<std::string> nextEvent();
  /// Non-blocking variant.
  std::optional<std::string> tryNextEvent();

  /// Stop receiving events (pending ones stay readable); idempotent.
  void close();

 private:
  friend class Server;
  Session(Server* server, std::uint64_t id) : server_(server), id_(id) {}

  void push(const std::string& line);

  Server* server_;
  std::uint64_t id_;
  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::string> outbox_;
  bool closed_ = false;
};

struct ServerConfig {
  int workers = 2;              ///< worker threads executing step quanta
  std::uint64_t quantumSteps = 25;  ///< steps per quantum at priority 1
  std::size_t maxResident = 4;  ///< solver instances alive simultaneously
  JobQueue::Limits admission;   ///< active/backlog/per-tenant bounds
  std::string checkpointDir = ".";  ///< eviction + rollback checkpoints
  /// Per-job rollback budget before the job is Failed (rung 2 of the
  /// ladder; rung 3 — losing the whole daemon — never happens for a
  /// job-local fault).
  int maxRecoveries = 1;
  /// Write a rollback checkpoint every K quanta (0: only evictions leave
  /// on-disk state, so an un-evicted faulting job restarts from step 0).
  std::uint64_t checkpointQuanta = 0;
  /// Start with workers parked until resume() — deterministic admission
  /// tests submit a burst before any job runs.
  bool startPaused = false;
  obs::MetricsRegistry* metrics = nullptr;  ///< external registry (else owned)
  obs::Tracer* tracer = nullptr;
  /// Test hook, mirrors ResilientRunnerConfig::beforeStep: called on the
  /// worker right before a job's quantum (solver, job id, steps done).
  std::function<void(Solver<D3Q19>&, std::uint64_t, std::uint64_t)>
      beforeQuantum;
};

class Server {
 public:
  explicit Server(const ServerConfig& cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Open a client session.  The reference stays valid for the server's
  /// lifetime.
  Session& openSession();

  /// Release workers parked by ServerConfig::startPaused.
  void resume();

  /// Stop accepting work, park workers after their current quantum, run
  /// shutdown hooks, close every session, and sweep checkpoint files of
  /// jobs that never finished.  Idempotent; also run by the destructor.
  void shutdown();
  bool shuttingDown() const;

  /// Called (outside the server mutex) when shutdown begins — transports
  /// register listener-closing callbacks here.
  void addShutdownHook(std::function<void()> hook);

  /// Read-only view of every job ever submitted (admitted or queued).
  std::vector<JobInfo> snapshot() const;

  obs::MetricsRegistry& metrics() { return *metrics_; }
  const ServerConfig& config() const { return cfg_; }

 private:
  friend class Session;

  struct Job {
    std::uint64_t id = 0;
    JobSpec spec;
    JobState state = JobState::Queued;
    std::unique_ptr<Solver<D3Q19>> solver;  ///< non-null while resident
    bool onDisk = false;          ///< checkpoint file holds newest state
    std::uint64_t lastCkptStep = 0;
    std::uint64_t stepsDone = 0;
    std::uint64_t quantaDone = 0;
    int recoveries = 0;
    std::uint64_t sessionId = 0;  ///< owner for event delivery
    std::chrono::steady_clock::time_point tSubmit;
    bool firstStepDone = false;
    double ttfsSeconds = 0;       ///< submit -> first completed step
  };

  void dispatch(Session& s, const std::string& line);
  void handleSubmit(Session& s, const WireMap& req);
  void handleStatus(Session& s, const WireMap& req);
  void handleStats(Session& s);

  void workerLoop(int index);
  /// Can the front-of-rotation job run right now?  True when it is
  /// resident, a resident slot is free, or an evictable victim exists —
  /// workers test this BEFORE popping so no worker ever holds a popped
  /// job while blocked (preserves round-robin order).
  bool frontRunnableLocked() const;
  /// Materialize a solver for `j` (build the case; restore its checkpoint
  /// when one exists), evicting victims while the resident set is full.
  /// Returns false when the job failed to build or the server stopped.
  bool makeResident(Job& j, std::unique_lock<std::mutex>& lk);
  void evict(Job& victim);
  void saveJobCheckpoint(Job& j);
  void handleFault(Job& j, const std::string& reason);
  void finishJob(Job& j, std::uint64_t stateHash);
  void failJob(Job& j, const std::string& reason);
  void releaseResidency(Job& j);
  void promoteQueued();
  void updateGauges();
  std::string checkpointPath(std::uint64_t id) const;

  void emit(std::uint64_t sessionId, const WireMap& event);

  ServerConfig cfg_;
  std::unique_ptr<obs::MetricsRegistry> ownedMetrics_;
  obs::MetricsRegistry* metrics_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool paused_ = false;
  std::uint64_t nextJobId_ = 1;
  std::uint64_t nextSessionId_ = 1;
  std::size_t residentCount_ = 0;
  JobQueue queue_;
  Scheduler sched_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::vector<std::function<void()>> shutdownHooks_;
  std::vector<std::thread> workers_;
  std::mutex joinM_;  ///< serializes the join in shutdown(); never nested in m_
  bool joined_ = false;
};

}  // namespace swlb::serve
