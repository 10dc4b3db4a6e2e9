// Host-thread executor for sub-range backends (DESIGN.md §14).
//
// The paper launches its CPE kernel one way: Athread spawns one kernel
// over a fixed 64-CPE partition and joins it (§IV-A; sw/athread.hpp).
// The host analogue here is one executor for every backend whose step()
// over disjoint z-slabs, run concurrently, equals one step() over the
// whole range (caps.subRange): run_slabs splits the range into the
// canonical team_slab z-slabs and runs them on a persistent TeamPool,
// the caller taking slab 0.  Kernels never see a
// thread count, so the split is the only thing that varies with it —
// and because slab writes are disjoint, every lane count is bitwise
// equal to one lane.  TeamPool is plain std::thread + mutex, so the same
// team runs in release and under every sanitizer.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/kernels.hpp"

namespace swlb {

/// The canonical z-slab of lane `t` out of `n` over `range`.  Every
/// thread count partitions through this one formula.
inline Box3 team_slab(const Box3& range, int t, int n) {
  const long long nz = range.hi.z - range.lo.z;
  Box3 slab = range;
  slab.lo.z = range.lo.z + static_cast<int>(nz * t / n);
  slab.hi.z = range.lo.z + static_cast<int>(nz * (t + 1) / n);
  return slab;
}

/// Resolve a host-thread request against the hardware: <= 0 means one
/// thread per core (never less than 1), anything else is taken as-is.
inline int resolve_host_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Persistent worker pool: N parked std::threads woken per parallelFor
/// call.  The calling thread runs index 0 itself, workers run 1..n-1.
/// All shared state is mutex-protected (sanitizer-clean); the job body
/// runs outside the lock.  Workers are created lazily on first use and
/// grown on demand; idle extras (when a call asks for fewer lanes) skip
/// the round at the barrier.
class TeamPool {
 public:
  TeamPool() = default;
  TeamPool(const TeamPool&) = delete;
  TeamPool& operator=(const TeamPool&) = delete;

  ~TeamPool() {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    cvWork_.notify_all();
    lock.unlock();
    for (auto& w : workers_) w.join();
  }

  /// Run fn(t) for every t in [0, n) across the team and return when all
  /// lanes finished.  Not reentrant (one parallelFor at a time per pool).
  void parallelFor(int n, const std::function<void(int)>& fn) {
    if (n <= 1) {
      fn(0);
      return;
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (static_cast<int>(workers_.size()) < n - 1) {
        const int index = static_cast<int>(workers_.size()) + 1;
        workers_.emplace_back([this, index] { workerLoop(index); });
      }
      job_ = &fn;
      active_ = n;
      pending_ = n - 1;
      ++epoch_;
      cvWork_.notify_all();
    }
    fn(0);
    std::unique_lock<std::mutex> lock(mu_);
    cvDone_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
  }

 private:
  void workerLoop(int index) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cvWork_.wait(lock, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
        if (index < active_) job = job_;
      }
      // Only a lane of the round it joined counts down: re-reading
      // active_ here would let an idle extra count down the next round.
      if (!job) continue;
      (*job)(index);
      std::unique_lock<std::mutex> lock(mu_);
      if (--pending_ == 0) cvDone_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cvWork_, cvDone_;
  std::vector<std::thread> workers_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  int active_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

/// The calling thread's team.  One per stepping thread: ranks and serve
/// workers are threads, parallelFor is not reentrant, and every solver
/// and patch a thread steps shares its one team.
inline TeamPool& thread_team() {
  thread_local TeamPool pool;
  return pool;
}

/// Run `hook(slab)` over `range` split into team_slab z-slabs across
/// `threads` lanes (<= 0 = one per hardware core, clamped to the number
/// of z-planes).  One lane calls the hook directly with `range`; more
/// run on thread_team(), the caller taking slab 0.
template <class Hook>
void run_slabs(const Box3& range, int threads, Hook&& hook) {
  const int n = std::min(resolve_host_threads(threads),
                         range.hi.z - range.lo.z);
  if (n <= 1) {
    hook(range);
    return;
  }
  thread_team().parallelFor(n, [&](int t) { hook(team_slab(range, t, n)); });
}

}  // namespace swlb
