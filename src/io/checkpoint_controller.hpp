// Checkpoint rotation policy: "save every N steps, keep the last K" —
// the operational half of the paper's checkpoint-and-restart controller
// for long campaigns (§IV-B).
#pragma once

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <string>

#include "io/checkpoint.hpp"

namespace swlb::io {

/// Rotation policy of both controllers: this one and the distributed
/// generations of runtime::DistributedCheckpointController.
struct CheckpointPolicy {
  std::uint64_t interval = 1000;  ///< save every this many steps
  int keep = 2;  ///< retain the newest K checkpoints (or generations)

  /// Throws Error unless the policy can drive a controller.
  void validate() const {
    if (interval == 0) throw Error("CheckpointPolicy: interval must be > 0");
    if (keep < 1) throw Error("CheckpointPolicy: keep must be >= 1");
  }
};

/// Drives rotated checkpoints for a single-block solver.  Call
/// maybeSave(solver) once per step (cheap when not due).
class CheckpointController {
 public:
  /// With discoverExisting the controller scans the prefix's directory for
  /// retained `<prefix>.step*.ckpt` files, so restoreLatest works after a
  /// real process restart (not just within one process).
  CheckpointController(std::string prefix, const CheckpointPolicy& policy,
                       bool discoverExisting = false)
      : prefix_(std::move(prefix)), policy_(policy) {
    policy_.validate();
    if (discoverExisting) scanExisting();
  }

  std::string pathFor(std::uint64_t step) const {
    return prefix_ + ".step" + std::to_string(step) + ".ckpt";
  }

  /// Rediscover `<prefix>.step*.ckpt` files on disk: names whose step
  /// does not parse (parse_step) and files with unreadable or mismatched
  /// headers are skipped, survivors replace the in-memory retained list
  /// (oldest beyond the keep policy are deleted, as a save would).
  /// Returns how many checkpoints are retained afterwards.
  std::size_t scanExisting() {
    namespace fs = std::filesystem;
    const fs::path full(prefix_);
    const fs::path dir =
        full.has_parent_path() ? full.parent_path() : fs::path(".");
    const std::string base = full.filename().string() + ".step";
    std::deque<std::uint64_t> found;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.size() <= base.size() + 5 || name.rfind(base, 0) != 0 ||
          name.substr(name.size() - 5) != ".ckpt")
        continue;
      const auto step = parse_step(std::string_view(name).substr(
          base.size(), name.size() - base.size() - 5));
      if (!step) continue;
      try {
        if (read_checkpoint_meta(pathFor(*step)).steps != *step) continue;
      } catch (const Error&) {
        continue;  // truncated/corrupt header: not restorable
      }
      found.push_back(*step);
    }
    std::sort(found.begin(), found.end());
    saved_ = std::move(found);
    while (static_cast<int>(saved_.size()) > policy_.keep) {
      std::remove(pathFor(saved_.front()).c_str());
      saved_.pop_front();
    }
    return saved_.size();
  }

  /// Save when checkpoint_due (each multiple of the interval).  Returns
  /// true when a checkpoint was written.
  template <class D, class S>
  bool maybeSave(const Solver<D, S>& solver) {
    const std::uint64_t step = solver.stepsDone();
    if (!checkpoint_due(solver, policy_.interval)) return false;
    if (!saved_.empty() && saved_.back() == step) return false;  // same step
    save_checkpoint(pathFor(step), solver);
    saved_.push_back(step);
    while (static_cast<int>(saved_.size()) > policy_.keep) {
      std::remove(pathFor(saved_.front()).c_str());
      saved_.pop_front();
    }
    return true;
  }

  /// Restore the newest retained checkpoint; throws when none exists.
  template <class D, class S>
  void restoreLatest(Solver<D, S>& solver) const {
    if (saved_.empty()) throw Error("CheckpointController: nothing saved yet");
    load_checkpoint(pathFor(saved_.back()), solver);
  }

  const std::deque<std::uint64_t>& retained() const { return saved_; }

  /// Delete every retained checkpoint file (end of campaign).
  void clear() {
    for (const auto step : saved_) std::remove(pathFor(step).c_str());
    saved_.clear();
  }

 private:
  std::string prefix_;
  CheckpointPolicy policy_;
  std::deque<std::uint64_t> saved_;
};

}  // namespace swlb::io
