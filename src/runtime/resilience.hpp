// Fault-tolerant runtime: distributed checkpoint generations and a
// rollback-recovery driver (paper §IV-B: "a checkpoint and restart
// controller which enables fast recover from system-level or hardware
// fault").
//
// Failure model: an escalation ladder (DESIGN.md §10).
//   1. A delayed message is absorbed by bounded recv retry with backoff
//      (FaultConfig::recvRetries) — no rollback at all.
//   2. A transient failure (injected rank kill with respawn, receive
//      timeout from a lost message, or a NaN / mass-divergence guard trip)
//      aborts the current step on the affected rank; the per-step
//      consensus vote (allreduce Max over local failure flags) makes the
//      abort collective, survivors drain stale halo traffic, and every
//      rank rolls back to the newest *complete* checkpoint generation on
//      disk.  Checkpoints restore populations, step counter and A-B parity
//      bit-exactly, so a recovered run is bit-identical to an
//      uninterrupted one.
//   3. When the vote itself times out — a rank is not answering at all —
//      survivors run the message-based liveness probe (retry + backoff per
//      FaultConfig::probe*), shrink the communicator onto the survivors
//      (Comm::shrink), rebuild the solver on a fresh N-k-rank
//      layout, and splice-restore the newest complete generation
//      (layout-independent, load_group_checkpoint_elastic).  The
//      post-shrink trajectory is bit-identical to a fresh N-k-rank run
//      restored from the same generation.
//
// Checkpoint generation layout (all writes atomic tmp-then-rename):
//   <prefix>.g<step>.rank<b>.ckpt   one checksummed file per block b
//   <prefix>.g<step>.manifest      root-written commit record (appears
//                                  only after a barrier proves all blocks
//                                  landed; a generation without a valid
//                                  manifest + full set of blocks is
//                                  ignored on restore)
#pragma once

#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coll/coll.hpp"
#include "io/checkpoint_controller.hpp"
#include "runtime/parallel_io.hpp"

namespace swlb::runtime {

/// Failure-handling knobs of the resilient driver (DESIGN.md §10).
struct FaultConfig {
  /// Receive deadline while the runner drives the solver: a lost halo
  /// message surfaces as TimeoutError instead of deadlocking the world.
  double recvTimeout = 2.0;
  /// Bounded retry of step receives before declaring the step failed: one
  /// delayed message costs `recvTimeout * (backoff^1 + ...)` extra wait,
  /// not a rollback.  0 escalates straight to the vote (pre-retry
  /// behaviour).
  int recvRetries = 1;
  double recvBackoff = 2.0;
  /// Liveness-probe ladder after a vote timeout: a peer is declared dead
  /// only after 1 + probeRetries unanswered detection rounds with
  /// exponentially widening windows.
  double probeTimeout = 0.25;
  int probeRetries = 3;
  double probeBackoff = 2.0;
  /// How many shrink-to-fit recoveries are allowed before giving up;
  /// 0 (default) keeps the strict fail-stop-with-respawn model.
  int maxShrinks = 0;

  /// Worst-case wall time a healthy-but-slow rank may spend inside one
  /// step's receive retries — the vote deadline must out-wait it.
  double stallWindow() const {
    double w = 0, t = recvTimeout;
    for (int i = 0; i <= recvRetries; ++i, t *= recvBackoff) w += t;
    return w;
  }
};

/// Rotated multi-generation group checkpoints for a DistributedSolver.
/// Every rank writes its own blocks; the root's manifest commits a
/// generation.  Construction is collective: it garbage-collects crash
/// debris and scans the disk (so recovery works across real process
/// restarts, not just within one process), and barriers so no rank can
/// start writing a new generation while a peer is still sweeping.
template <class D, class S = Real>
class DistributedCheckpointController {
 public:
  DistributedCheckpointController(Comm& comm, std::string prefix,
                                  const io::CheckpointPolicy& policy)
      : comm_(comm), prefix_(std::move(prefix)), policy_(policy) {
    policy_.validate();
    garbageCollect();
    comm_.barrier();
    generations_ = scanGenerations();
  }

  std::string generationPrefix(std::uint64_t step) const {
    return prefix_ + ".g" + std::to_string(step);
  }

  /// Steps of the generations currently retained (oldest first).
  const std::deque<std::uint64_t>& generations() const { return generations_; }

  /// Save a generation at the solver's current step and rotate old ones
  /// out.  Collective.
  void save(DistributedSolver<D, S>& solver) {
    const std::uint64_t step = solver.stepsDone();
    save_group_checkpoint(solver, generationPrefix(step));
    if (generations_.empty() || generations_.back() != step)
      generations_.push_back(step);
    while (static_cast<int>(generations_.size()) > policy_.keep) {
      removeGeneration(generations_.front());
      generations_.pop_front();
    }
  }

  /// Save when io::checkpoint_due (each multiple of the interval).
  /// Collective when due (and only then).  Returns true when a generation
  /// was written.
  bool maybeSave(DistributedSolver<D, S>& solver) {
    const std::uint64_t step = solver.stepsDone();
    if (!io::checkpoint_due(solver, policy_.interval)) return false;
    if (!generations_.empty() && generations_.back() == step) return false;
    save(solver);
    return true;
  }

  /// Roll every rank back to the newest generation whose manifest AND all
  /// of its blocks validate on every rank (allreduce Min agreement per
  /// candidate, so all ranks restore the same generation or none).  The
  /// block headers are validated *striped over the manifest's block
  /// count* — which may exceed the live rank count — and the load itself
  /// is elastic: exact reload on a matching patch grid, splice-restore
  /// onto a different one.  Collective; throws when no complete generation
  /// exists.
  std::uint64_t restoreNewestComplete(DistributedSolver<D, S>& solver) {
    garbageCollect();
    std::deque<std::uint64_t> candidates = scanGenerations();
    coll::Collectives cs(comm_);
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      const std::uint64_t step = *it;
      const std::int64_t ok = validateGeneration(step) ? 1 : 0;
      if (cs.allreduce_value<std::int64_t>(ok, coll::Op::Min) < 1) continue;
      load_group_checkpoint_elastic(solver, generationPrefix(step));
      generations_ = candidates;
      while (!generations_.empty() && generations_.back() > step)
        generations_.pop_back();
      return step;
    }
    throw Error("DistributedCheckpointController: no complete checkpoint "
                "generation under '" + prefix_ + "'");
  }

  /// Delete every retained generation (end of campaign).  Collective.
  void clear() {
    comm_.barrier();
    for (const std::uint64_t step : generations_) removeGeneration(step);
    generations_.clear();
    comm_.barrier();
  }

  /// Delete crash debris under the prefix: stray `.tmp` files (atomic
  /// writes that never renamed) and rank blocks of generations that never
  /// committed a manifest.  Runs on every rank at construction and before
  /// each restore scan — the filesystem is quiescent at those points, and
  /// concurrent deletion of the same file is harmless (ENOENT ignored).
  /// Returns the number of files this rank removed.
  std::size_t garbageCollect() const {
    namespace fs = std::filesystem;
    const fs::path full(prefix_);
    const fs::path dir =
        full.has_parent_path() ? full.parent_path() : fs::path(".");
    const std::string base = full.filename().string() + ".g";
    const std::deque<std::uint64_t> committed = scanGenerations();
    std::size_t removed = 0;
    std::error_code ec;
    std::vector<fs::path> doomed;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(base, 0) != 0) continue;
      if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
        doomed.push_back(entry.path());
        continue;
      }
      // "<base><digits>.rank<k>.ckpt" without a committed manifest.
      const std::size_t dot = name.find('.', base.size());
      if (dot == std::string::npos) continue;
      const auto step = io::parse_step(
          std::string_view(name).substr(base.size(), dot - base.size()));
      if (!step || name.compare(dot, 5, ".rank") != 0) continue;
      if (std::find(committed.begin(), committed.end(), *step) ==
          committed.end())
        doomed.push_back(entry.path());
    }
    for (const fs::path& p : doomed)
      if (fs::remove(p, ec)) ++removed;
    if (removed > 0) obs::count("resilience.gc.files_removed", removed);
    return removed;
  }

 private:
  /// One rank's share of validating a candidate generation: the manifest
  /// plus every block header congruent with it, striped over the
  /// manifest's blocks so any live rank count covers them all.
  bool validateGeneration(std::uint64_t step) const {
    try {
      const GroupManifest m = read_group_manifest(generationPrefix(step));
      if (m.steps != step) return false;
      for (int b = comm_.rank(); b < m.ranks; b += comm_.size()) {
        const io::CheckpointMeta meta = io::read_checkpoint_meta(
            group_checkpoint_path(generationPrefix(step), b));
        const Box3& blk = m.blocks[static_cast<std::size_t>(b)];
        if (meta.steps != step ||
            meta.interior.x != blk.hi.x - blk.lo.x ||
            meta.interior.y != blk.hi.y - blk.lo.y ||
            meta.interior.z != blk.hi.z - blk.lo.z)
          return false;
      }
      return true;
    } catch (const Error&) {
      return false;
    }
  }

  /// Committed (manifest present) generations on disk, oldest first.  All
  /// ranks see the same quiescent filesystem when this runs (post-vote or
  /// at construction), so the scan agrees across ranks.
  std::deque<std::uint64_t> scanGenerations() const {
    namespace fs = std::filesystem;
    const fs::path full(prefix_);
    const fs::path dir =
        full.has_parent_path() ? full.parent_path() : fs::path(".");
    const std::string base = full.filename().string() + ".g";
    const std::string suffix = ".manifest";
    std::deque<std::uint64_t> found;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.size() <= base.size() + suffix.size() ||
          name.rfind(base, 0) != 0 ||
          name.substr(name.size() - suffix.size()) != suffix)
        continue;
      const auto step = io::parse_step(std::string_view(name).substr(
          base.size(), name.size() - base.size() - suffix.size()));
      if (step) found.push_back(*step);
    }
    std::sort(found.begin(), found.end());
    return found;
  }

  /// Rotate a generation off disk (collective).  The manifest records how
  /// many blocks it has (possibly more than the live rank count); every
  /// rank reads it before the root deletes it — first, so a half-deleted
  /// generation is never mistaken for a complete one — and then deletes
  /// its stripe of the blocks.
  void removeGeneration(std::uint64_t step) {
    const std::string gp = generationPrefix(step);
    int blocks = comm_.size();
    try {
      blocks = std::max(blocks, read_group_manifest(gp).ranks);
    } catch (const Error&) {
    }
    comm_.barrier();  // every rank knows the block count
    if (comm_.rank() == 0)
      std::remove(group_manifest_path(gp).c_str());
    for (int b = comm_.rank(); b < blocks; b += comm_.size())
      std::remove(group_checkpoint_path(gp, b).c_str());
  }

  Comm& comm_;
  std::string prefix_;
  io::CheckpointPolicy policy_;
  std::deque<std::uint64_t> generations_;
};

template <class D, class S = Real>
struct ResilientRunnerConfig {
  /// Generations every 50 steps, the newest 2 kept.
  io::CheckpointPolicy checkpoint{.interval = 50};
  /// Timeouts, retries and the shrink budget (DESIGN.md §10).
  FaultConfig fault;
  /// Check NaN and global mass conservation every this many steps
  /// (0 disables the guard).
  std::uint64_t guardInterval = 0;
  /// Relative tolerance on global mass drift before the guard trips.
  double massTolerance = 1e-8;
  /// Give up (throw) after this many rollbacks.
  int maxRecoveries = 8;
  /// Factory rebuilding a fully initialized solver (mask, materials,
  /// initial fields) for the *current* communicator — required for
  /// shrink-to-fit recovery, where survivors re-decompose at N-k ranks
  /// before the splice restore overwrites the payload state.
  std::function<std::unique_ptr<DistributedSolver<D, S>>(Comm&)> rebuild;
  /// Test hook, called on every rank right before each step attempt
  /// (e.g. to poke a NaN into the field and exercise the guard).
  std::function<void(DistributedSolver<D, S>&, std::uint64_t)> beforeStep;
};

/// Drives a DistributedSolver to a target step, detecting failures and
/// recovering along the escalation ladder: recv retry -> collective
/// rollback -> shrink-to-fit (when cfg.fault.maxShrinks > 0 and
/// cfg.rebuild is set).  Call run() from every rank.  After a shrink the
/// original solver object is stale — use solver() for the live one.
template <class D, class S = Real>
class ResilientRunner {
 public:
  struct Report {
    std::uint64_t recoveries = 0;       ///< recoveries (rollbacks + shrinks)
    std::uint64_t lastRestoredStep = 0; ///< step of the newest rollback target
    std::uint64_t drainedMessages = 0;  ///< stale messages discarded (this rank)
    std::uint64_t shrinks = 0;          ///< shrink-to-fit recoveries
    std::uint64_t ranksLost = 0;        ///< ranks permanently lost
  };

  ResilientRunner(DistributedSolver<D, S>& solver, std::string prefix,
                  const ResilientRunnerConfig<D, S>& cfg = {})
      : solver_(&solver), cfg_(cfg),
        ckpt_(solver.comm(), std::move(prefix), cfg.checkpoint) {}

  DistributedCheckpointController<D, S>& checkpoints() { return ckpt_; }

  /// The solver currently driven: the constructor argument until a shrink
  /// replaces it with a rebuilt one on the compacted communicator.
  DistributedSolver<D, S>& solver() { return *solver_; }

  /// Run until solver().stepsDone() == targetStep.  Collective.  On a rank
  /// killed permanently the pending RankKilledError is rethrown (the
  /// thread must unwind); survivors shrink around it and keep running.
  Report run(std::uint64_t targetStep) {
    Comm& comm = solver_->comm();
    const double oldTimeout = comm.recvTimeout();
    const int oldRetries = comm.recvRetries();
    const double oldBackoff = comm.recvRetryBackoff();
    comm.setRecvTimeout(cfg_.fault.recvTimeout);
    comm.setRecvRetry(cfg_.fault.recvRetries, cfg_.fault.recvBackoff);
    Report rep;
    // Baseline generation: a failure before the first periodic checkpoint
    // must still have a rollback target.
    if (ckpt_.generations().empty()) ckpt_.save(*solver_);
    const bool guard = cfg_.guardInterval > 0;
    const double mass0 =
        guard ? comm.allreduce(solver_->localMass(), Comm::Op::Sum) : 0;

    while (solver_->stepsDone() < targetStep) {
      int fail = 0;
      const bool guardDue =
          guard && (solver_->stepsDone() + 1) % cfg_.guardInterval == 0;
      try {
        if (cfg_.beforeStep) cfg_.beforeStep(*solver_, solver_->stepsDone());
        comm.faultTick(solver_->stepsDone());
        solver_->step();
        if (guardDue && !solver_->populationsFinite()) fail = 1;
      } catch (const RankKilledError& e) {
        // A permanent kill is this rank's death, not a recoverable step
        // failure: unwind the thread, survivors will shrink around us.
        if (e.permanent()) throw;
        fail = 1;
      } catch (const TimeoutError&) {
        fail = 1;
      } catch (const CorruptionError&) {
        fail = 1;
      }
      // Consensus vote: any rank's failure aborts the step everywhere.
      // This is the only collective a failed rank still participates in,
      // so collectives stay aligned across ranks.  A rank that just burned
      // its whole receive-retry ladder discovering a lost message enters
      // the vote up to stallWindow() late; the vote gets a proportionally
      // larger deadline (and no retries of its own) so the abort consensus
      // cannot itself time out on punctual ranks — unless a peer is not
      // answering at all, which escalates to the liveness probe below.
      bool anyFail = false, voteLost = false;
      comm.setRecvTimeout(4 * cfg_.fault.stallWindow());
      comm.setRecvRetry(0, cfg_.fault.recvBackoff);
      try {
        coll::Collectives vote(comm);
        anyFail = vote.allreduce_value<std::int64_t>(fail, coll::Op::Max) > 0;
      } catch (const TimeoutError&) {
        voteLost = true;
      }
      comm.setRecvTimeout(cfg_.fault.recvTimeout);
      comm.setRecvRetry(cfg_.fault.recvRetries, cfg_.fault.recvBackoff);

      if (voteLost) {
        // Rung 3 of the ladder: the vote itself broke down, so some peer
        // may be permanently gone.  Probe with retry-and-backoff before
        // declaring anyone dead; an all-alive verdict downgrades this to
        // a transient failure (rung 2).
        const auto tFail = std::chrono::steady_clock::now();
        HealthConfig hc;
        hc.timeout = cfg_.fault.probeTimeout;
        hc.retries = cfg_.fault.probeRetries;
        hc.backoff = cfg_.fault.probeBackoff;
        const std::vector<std::uint8_t> alive = comm.probeLiveness(hc);
        std::uint64_t lost = 0;
        for (int r = 0; r < comm.size(); ++r)
          if (!alive[static_cast<std::size_t>(comm.worldRankOf(r))]) ++lost;
        if (lost == 0) {
          anyFail = true;  // everyone answered: treat as transient
        } else {
          if (static_cast<int>(rep.shrinks) >= cfg_.fault.maxShrinks)
            throw Error(
                "ResilientRunner: permanent rank loss but the shrink budget "
                "is exhausted (fault.maxShrinks = " +
                std::to_string(cfg_.fault.maxShrinks) + ")");
          if (!cfg_.rebuild)
            throw Error(
                "ResilientRunner: shrink recovery requires cfg.rebuild");
          obs::TraceScope shrinkScope("resilience.shrink");
          comm.shrink(alive);
          ++rep.shrinks;
          rep.ranksLost += lost;
          ++rep.recoveries;
          obs::count("resilience.shrink.count");
          obs::count("resilience.shrink.ranks_lost", lost);
          // Survivors are synchronized by the probe's confirmation round;
          // barrier again on the shrunken communicator before the rebuild
          // emits any user-tag traffic (a peer may still be draining).
          comm.barrier();
          owned_ = cfg_.rebuild(comm);
          if (!owned_)
            throw Error("ResilientRunner: cfg.rebuild returned null");
          solver_ = owned_.get();
          rep.lastRestoredStep = ckpt_.restoreNewestComplete(*solver_);
          obs::observe("resilience.downtime_seconds",
                       std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - tFail)
                           .count());
          continue;
        }
      }

      if (!anyFail && guardDue) {
        const double mass = comm.allreduce(solver_->localMass(), Comm::Op::Sum);
        // NaN mass also fails this comparison, collapsing both guard
        // conditions into one agreed-on verdict.  The reduction order
        // changes with the rank count, so the tolerance (not bit equality)
        // is what makes this verdict stable across shrinks.
        if (!(std::abs(mass - mass0) <=
              cfg_.massTolerance * std::max(std::abs(mass0), 1.0)))
          anyFail = true;
      }
      if (anyFail) {
        const auto tFail = std::chrono::steady_clock::now();
        if (static_cast<int>(++rep.recoveries) > cfg_.maxRecoveries)
          throw Error("ResilientRunner: giving up after " +
                      std::to_string(rep.recoveries - 1) + " recoveries");
        // All ranks are past the vote: every message of the aborted step
        // is already in some mailbox, so draining now removes exactly the
        // stale traffic.  Barrier before restore so no rank resumes
        // sending while a neighbour is still draining.
        rep.drainedMessages += comm.drainMailbox();
        comm.barrier();
        rep.lastRestoredStep = ckpt_.restoreNewestComplete(*solver_);
        obs::observe("resilience.downtime_seconds",
                     std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - tFail)
                         .count());
        continue;
      }
      // Every rank is past an accepted step, so the rebalance collectives
      // line up; they run outside the rollback's reach (a failure in them
      // propagates as an error).
      solver_->maybeRebalance();
      ckpt_.maybeSave(*solver_);
    }
    comm.setRecvTimeout(oldTimeout);
    comm.setRecvRetry(oldRetries, oldBackoff);
    return rep;
  }

 private:
  DistributedSolver<D, S>* solver_;           ///< live solver (never null)
  std::unique_ptr<DistributedSolver<D, S>> owned_;  ///< post-shrink rebuild
  ResilientRunnerConfig<D, S> cfg_;
  DistributedCheckpointController<D, S> ckpt_;
};

}  // namespace swlb::runtime
