// Patch-based decomposition with measured dynamic load balancing
// (DESIGN.md §13; Feichtinger et al., arXiv:1007.1388).
//
// The paper's static uniform 2-D split (§IV-C1) assigns every rank the
// same cell *volume*, so any non-uniform workload — terrain masks, hulls,
// sponge zones — idles the ranks that drew the solid-heavy blocks.  The
// patch model splits the global box into many small sub-boxes ("patches",
// several per rank), orders them along a Morton space-filling curve, and
// assigns *contiguous curve segments* to ranks by weighted recursive
// bisection.  Weights start as fluid-cell counts from the mask and are
// replaced online by measured per-patch step-time EMAs, so `rebalanceEvery`
// can migrate the smallest set of patches that brings the measured
// imbalance back under a threshold.  Migration ships the current-parity
// population buffer verbatim (checkpoint-style raw payload), so a
// migrated run is bit-identical to an unmigrated one.
//
// PatchSolver is the distributed runtime's patch-aware mode: it reuses
// Decomposition for the patch grid, HaloExchange's planned links and
// strip pack order for the per-patch ghost strips (intra-rank faces
// become local copies, inter-rank faces become tagged messages), and runs
// every patch on a swlb::Solver block with the same sweep as the
// monolithic solver — which is why every patch layout is bit-identical to
// it.
#pragma once

#include <chrono>
#include <cstring>
#include <map>
#include <optional>

#include "coll/coll.hpp"
#include "core/solver.hpp"
#include "obs/context.hpp"
#include "runtime/halo.hpp"

namespace swlb::runtime {

/// Geometry + assignment policy of the patch decomposition.  Pure
/// functions of (global box, patch grid, weights) — no communication —
/// so every rank computes identical layouts and rebalance plans from
/// identical inputs (the solver feeds it deterministically-allreduced
/// weight vectors).
class PatchLayout {
 public:
  /// `patchGrid.z` must be 1 (full z per patch, the paper's xy scheme).
  PatchLayout(const Int3& global, const Int3& patchGrid);

  int patchCount() const { return decomp_.rankCount(); }
  const Decomposition& decomposition() const { return decomp_; }
  Box3 boxOf(int patch) const { return decomp_.blockOf(patch); }

  /// Patch ids ordered along the Morton curve over patch-grid (x, y)
  /// coordinates — deterministic, a permutation of 0..patchCount-1.
  const std::vector<int>& sfcOrder() const { return order_; }

  /// Per-patch streaming-cell counts ("fluid weights"): cells whose
  /// material class streams (fluid, porous, Zou/He...) cost a full
  /// gather+collide; solid/wall cells take the cheap boundary path.
  std::vector<double> fluidWeights(const MaskField& globalMask,
                                   const MaterialTable& mats) const;

  /// Assign contiguous curve segments to `nranks` by weighted recursive
  /// bisection.  Every rank receives at least one patch.  Returns the
  /// owner rank per patch id.
  std::vector<int> assignBisect(const std::vector<double>& weights,
                                int nranks) const;

  /// Load-imbalance factor of an assignment: max rank load / mean rank
  /// load (1.0 = perfectly balanced).
  static double rankImbalance(const std::vector<int>& owners,
                              const std::vector<double>& weights, int nranks);

  struct Move {
    int patch = -1;
    int from = -1;
    int to = -1;
  };

  /// Greedy move plan bringing `rankImbalance` under `threshold`: each
  /// round moves the one patch from the most-loaded to the least-loaded
  /// rank that most lowers their pairwise peak — an approximately minimal
  /// migration set.  Never empties a rank.  Deterministic for identical
  /// inputs; returns an empty plan when already under threshold or no
  /// move improves.
  std::vector<Move> planRebalance(const std::vector<int>& owners,
                                  const std::vector<double>& weights,
                                  int nranks, double threshold) const;

 private:
  Decomposition decomp_;
  std::vector<int> order_;
};

/// Patch-aware distributed solver (two-lattice backends, A-B parity).
/// Each rank owns the patches the layout assigns it, one Solver block
/// each; ghost strips between patches on the same rank are local copies,
/// strips crossing ranks ride tagged messages with HaloExchange's own
/// link plan and pack order.
template <class D, class S = Real>
class PatchSolver {
 public:
  using Field = PopulationFieldT<S>;

  enum class Assignment {
    FluidWeighted,  ///< bisect by mask fluid-cell counts (default)
    UniformCount,   ///< equal patch counts per rank (static-split proxy)
  };

  struct Config {
    Int3 global{0, 0, 0};
    CollisionConfig collision;
    Periodicity periodic;
    /// Patch grid; {0,0,0} selects Decomposition::choose of
    /// patchesPerRank * comm.size() patches.
    Int3 patchGrid{0, 0, 0};
    int patchesPerRank = 2;
    Assignment assignment = Assignment::FluidWeighted;
    /// Every `rebalanceEvery` steps, allreduce the measured per-patch
    /// step-time EMAs and migrate patches if the measured imbalance
    /// exceeds `rebalanceThreshold`.  0 disables.
    std::uint64_t rebalanceEvery = 0;
    double rebalanceThreshold = 1.10;
    /// EMA smoothing of the per-patch step-time measurements.
    double emaAlpha = 0.3;
    /// Default stream/collide backend for every patch (registry name,
    /// core/backend.hpp).  In-place backends are rejected: patch ghost
    /// exchange needs the two-lattice A-B contract.
    std::string backend = "fused";
    /// Per-patch overrides (patch id -> backend name): a user-set
    /// heterogeneous mixed-backend plan.  Every rank must pass the same
    /// map (validated on all ranks; migration re-creates the patch's
    /// backend on the receiver from this same table).
    std::map<int, std::string> patchBackends;
    /// Host threads each caps.subRange patch sweep is split across (<= 0
    /// = one per hardware core; see Solver::setHostThreads).  The patches
    /// of a rank share its one team.
    int hostThreads = 1;
  };

  PatchSolver(Comm& comm, const Config& cfg)
      : comm_(comm),
        cfg_(cfg),
        layout_(cfg.global,
                cfg.patchGrid.x > 0
                    ? cfg.patchGrid
                    : Decomposition::choose(
                          std::max(1, cfg.patchesPerRank) * comm.size(),
                          cfg.global)),
        globalMask_(Grid(cfg.global.x, cfg.global.y, cfg.global.z),
                    MaterialTable::kFluid) {
    if (layout_.patchCount() < comm_.size())
      throw Error("PatchSolver: fewer patches than ranks");
  }

  Comm& comm() { return comm_; }
  const PatchLayout& layout() const { return layout_; }
  MaterialTable& materials() { return mats_; }
  /// The replicated global mask (paint before finalizeMask; every rank
  /// must paint identically — same contract as a collective).
  MaskField& globalMask() { return globalMask_; }

  /// Paint material `id` over a box in global coordinates.
  void paintGlobal(const Box3& globalBox, std::uint8_t id) {
    const Box3 b = intersect(
        globalBox, Box3{{0, 0, 0}, {cfg_.global.x, cfg_.global.y,
                                    cfg_.global.z}});
    for (int z = b.lo.z; z < b.hi.z; ++z)
      for (int y = b.lo.y; y < b.hi.y; ++y)
        for (int x = b.lo.x; x < b.hi.x; ++x) globalMask_(x, y, z) = id;
  }

  /// Finish setup: compute the initial assignment (fluid-weighted
  /// bisection over the Morton order unless UniformCount) and build the
  /// owned patches with their ghost masks and link plans.  Collective
  /// only in the trivial sense — every rank derives the same assignment
  /// from the replicated mask, no messages.
  void finalizeMask() {
    // Validate the backend plan on *every* rank (owners and not), so a
    // bad name or capability conflict fails identically everywhere
    // instead of desynchronizing the collectives below.
    validateBackendName(cfg_.backend);
    for (const auto& [id, name] : cfg_.patchBackends) {
      if (id < 0 || id >= layout_.patchCount())
        throw Error("PatchSolver: patchBackends names patch " +
                    std::to_string(id) + " but the layout has " +
                    std::to_string(layout_.patchCount()) + " patches");
      validateBackendName(name);
    }
    std::vector<double> w;
    if (cfg_.assignment == Assignment::FluidWeighted) {
      w = layout_.fluidWeights(globalMask_, mats_);
      double total = 0;
      for (double v : w) total += v;
      if (total <= 0) w.assign(w.size(), 1.0);
    } else {
      w.assign(static_cast<std::size_t>(layout_.patchCount()), 1.0);
    }
    owners_ = layout_.assignBisect(w, comm_.size());
    for (int p = 0; p < layout_.patchCount(); ++p)
      if (owners_[static_cast<std::size_t>(p)] == comm_.rank())
        patches_.emplace(p, buildPatch(p));
    maskFinal_ = true;
    obs::gaugeSet("patch.owned", static_cast<double>(patches_.size()));
    obs::gaugeSet("patch.total", static_cast<double>(layout_.patchCount()));
  }

  /// Equilibrium initialization from a *global*-coordinate field function
  /// (same contract as DistributedSolver::initField).
  void initField(const std::function<void(int, int, int, Real&, Vec3&)>& fn) {
    if (!maskFinal_) finalizeMask();
    for (auto& [id, p] : patches_) {
      const Int3 lo = p.box.lo;
      p.block.initField([&](int x, int y, int z, Real& rho, Vec3& u) {
        fn(x + lo.x, y + lo.y, z + lo.z, rho, u);
      });
    }
  }

  void initUniform(Real rho, const Vec3& u) {
    initField([&](int, int, int, Real& r, Vec3& v) {
      r = rho;
      v = u;
    });
  }

  void step() {
    obs::TraceScope stepScope("step");
    SWLB_ASSERT(maskFinal_);
    {
      // z is never decomposed: wrap it locally per patch before the
      // exchange so ghost strips carry valid z-halo rows (halo.hpp
      // contract).
      obs::TraceScope zScope("z_wrap");
      for (auto& [id, p] : patches_) p.block.wrapHalo();
    }
    {
      obs::TraceScope exScope("patch.exchange");
      exchangeGhosts();
    }
    {
      obs::TraceScope computeScope("patch.compute");
      for (auto& [id, p] : patches_) {
        const auto t0 = std::chrono::steady_clock::now();
        p.block.sweep(p.block.grid().interior());
        p.block.advance();
        const double dt =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        p.ema = p.emaInit ? cfg_.emaAlpha * dt + (1 - cfg_.emaAlpha) * p.ema
                          : dt;
        p.emaInit = true;
        computeSeconds_ += dt;
        obs::observe("patch.step_seconds", dt);
      }
    }
    parity_ = 1 - parity_;
    ++steps_;
    if (cfg_.rebalanceEvery > 0 && steps_ % cfg_.rebalanceEvery == 0)
      rebalanceMeasured();
  }

  void run(std::uint64_t n) {
    for (std::uint64_t s = 0; s < n; ++s) step();
  }

  /// Run n steps; returns global MLUPS (identical on every rank).
  double runMeasured(std::uint64_t n) {
    comm_.barrier();
    const auto t0 = std::chrono::steady_clock::now();
    run(n);
    comm_.barrier();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = comm_.allreduce(
        std::chrono::duration<double>(t1 - t0).count(), Comm::Op::Max);
    const double cells = static_cast<double>(cfg_.global.x) * cfg_.global.y *
                         cfg_.global.z;
    return cells * static_cast<double>(n) / sec / 1e6;
  }

  std::uint64_t stepsDone() const { return steps_; }
  int parity() const { return parity_; }
  const std::vector<int>& owners() const { return owners_; }
  /// Backend name patch `id` runs under (the per-patch override, else the
  /// default) — identical on every rank, owned or not.
  const std::string& patchBackendName(int id) const {
    const auto it = cfg_.patchBackends.find(id);
    return it != cfg_.patchBackends.end() ? it->second : cfg_.backend;
  }
  /// Patch ids owned by this rank, ascending.
  std::vector<int> ownedPatches() const {
    std::vector<int> ids;
    ids.reserve(patches_.size());
    for (const auto& [id, p] : patches_) ids.push_back(id);
    return ids;
  }
  /// This rank's accumulated kernel seconds (the balance target).
  double computeSeconds() const { return computeSeconds_; }

  /// Measured per-patch step-time EMAs, allreduced so every rank sees the
  /// full vector (collective, deterministic reduction order).
  std::vector<double> measuredWeights() {
    std::vector<double> w(static_cast<std::size_t>(layout_.patchCount()),
                          0.0);
    for (const auto& [id, p] : patches_)
      w[static_cast<std::size_t>(id)] = p.emaInit ? p.ema : 0.0;
    coll::Collectives cs(comm_);
    cs.allreduce(std::span<double>(w.data(), w.size()), coll::Op::Sum);
    return w;
  }

  /// Measured rank imbalance (max/mean of per-rank EMA sums).  Collective.
  double measuredImbalance() {
    return PatchLayout::rankImbalance(owners_, measuredWeights(),
                                      comm_.size());
  }

  /// Rebalance now against an explicit weight vector (every rank must
  /// pass identical weights — e.g. from measuredWeights()).  Returns the
  /// number of patches migrated.  Collective.
  int rebalanceNow(const std::vector<double>& weights, double threshold) {
    const auto moves =
        layout_.planRebalance(owners_, weights, comm_.size(), threshold);
    if (!moves.empty()) migrate(moves);
    return static_cast<int>(moves.size());
  }

  /// Gather the full population field on `root` (interior cells, decoded
  /// to Real).  Collective; test/IO helper.
  PopulationField gatherPopulations(int root) {
    std::vector<Real> local(localCellCount() * D::Q);
    std::size_t k = 0;
    for (const auto& [id, p] : patches_) {
      const Grid& g = p.block.grid();
      for (int q = 0; q < D::Q; ++q)
        for (int z = 0; z < g.nz; ++z)
          for (int y = 0; y < g.ny; ++y)
            for (int x = 0; x < g.nx; ++x)
              local[k++] = p.block.population(q, x, y, z);
    }
    std::vector<std::size_t> counts(static_cast<std::size_t>(comm_.size()),
                                    0);
    std::size_t totalCount = 0;
    for (int p = 0; p < layout_.patchCount(); ++p) {
      const std::size_t c =
          static_cast<std::size_t>(layout_.boxOf(p).volume()) * D::Q;
      counts[static_cast<std::size_t>(owners_[static_cast<std::size_t>(p)])] +=
          c;
      totalCount += c;
    }
    coll::Collectives cs(comm_);
    if (comm_.rank() != root) {
      cs.gatherv<Real>(root, local, counts, {});
      return PopulationField();
    }
    std::vector<Real> all(totalCount);
    cs.gatherv<Real>(root, local, counts, all);
    Grid g(cfg_.global.x, cfg_.global.y, cfg_.global.z);
    PopulationField out(g, D::Q);
    std::size_t j = 0;
    for (int r = 0; r < comm_.size(); ++r)
      for (int p = 0; p < layout_.patchCount(); ++p) {
        if (owners_[static_cast<std::size_t>(p)] != r) continue;
        const Box3 b = layout_.boxOf(p);
        for (int q = 0; q < D::Q; ++q)
          for (int z = b.lo.z; z < b.hi.z; ++z)
            for (int y = b.lo.y; y < b.hi.y; ++y)
              for (int x = b.lo.x; x < b.hi.x; ++x) out(q, x, y, z) = all[j++];
      }
    return out;
  }

 private:
  struct PatchState {
    int id = -1;
    Box3 box;  // global coordinates
    /// The patch's block: buffers, padded mask, parity and its own backend
    /// instance (rebuilt from the replicated Config plan on migration —
    /// backend state never travels).
    Solver<D, S> block;
    std::vector<HaloExchange::Link> links;
    std::vector<std::vector<std::uint8_t>> sendBufs, recvBufs;
    std::vector<Request> pending;
    double ema = 0;  // measured step-seconds EMA (travels on migration)
    bool emaInit = false;

    PatchState(int id_, const Box3& box_, Solver<D, S> block_)
        : id(id_), box(box_), block(std::move(block_)) {}
  };

  // Ghost-message tags: disjoint from HaloExchange's forward (0..8) and
  // reverse (16..24) spaces and from any example driver's ad-hoc tags.
  // Nine directions per destination patch.
  static constexpr int kGhostTagBase = 1 << 20;
  static constexpr int kMigrateTagBase = 1 << 19;
  static int ghostTag(int destPatch, int dirTag) {
    return kGhostTagBase + destPatch * 9 + dirTag;
  }

  /// Mask oracle in global coordinates: periodic axes wrap, anything
  /// outside the domain is solid — exactly the state DistributedSolver's
  /// fill_halo_mask + exchangeMask produces in every block's ghost layer.
  std::uint8_t maskAt(int gx, int gy, int gz) const {
    auto wrap = [](int v, int n, bool per) -> int {
      if (v >= 0 && v < n) return v;
      if (!per) return -1;
      return ((v % n) + n) % n;
    };
    const int x = wrap(gx, cfg_.global.x, cfg_.periodic.x);
    const int y = wrap(gy, cfg_.global.y, cfg_.periodic.y);
    const int z = wrap(gz, cfg_.global.z, cfg_.periodic.z);
    if (x < 0 || y < 0 || z < 0) return MaterialTable::kSolid;
    return globalMask_(x, y, z);
  }

  /// A patch block at the solver's current step and parity, its padded
  /// mask (interior and ghost ring) copied from the replicated global
  /// mask.  Only the initial populations are left to the caller.
  PatchState buildPatch(int id) const {
    const Box3 box = layout_.boxOf(id);
    const Grid grid(box.hi.x - box.lo.x, box.hi.y - box.lo.y,
                    box.hi.z - box.lo.z);
    PatchState p(id, box,
                 Solver<D, S>(grid, cfg_.collision,
                              Periodicity{false, false, cfg_.periodic.z}));
    Solver<D, S>& b = p.block;
    b.materials() = mats_;
    b.setBackend(patchBackendName(id));
    b.setHostThreads(cfg_.hostThreads);
    b.restoreState(steps_, parity_);
    auto copyMask = [&] {
      for (int z = -1; z <= grid.nz; ++z)
        for (int y = -1; y <= grid.ny; ++y)
          for (int x = -1; x <= grid.nx; ++x)
            b.mask()(x, y, z) =
                maskAt(x + box.lo.x, y + box.lo.y, z + box.lo.z);
    };
    // Before finalizeMask so the backend validates the real interior, and
    // again after it to restore the ghost ring its fill_halo_mask walls
    // off (KernelBackend::init reads interior cells only).
    copyMask();
    b.finalizeMask();
    copyMask();
    // Reuse HaloExchange's plan over the patch-grid decomposition: patch
    // ids play the rank role, boxes/tags come out in the forward space.
    HaloExchange plan(layout_.decomposition(), id, cfg_.periodic, grid);
    p.links = plan.links();
    p.sendBufs.resize(p.links.size());
    p.recvBufs.resize(p.links.size());
    p.pending.resize(p.links.size());
    return p;
  }

  /// Reject names the patch runtime cannot drive — explicitly, with the
  /// capability that failed, never by substituting another backend.
  void validateBackendName(const std::string& name) const {
    // make_backend throws the registered-list error on an unknown name.
    if (make_backend<D, S>(name)->info().caps.inPlaceStreaming)
      throw Error("PatchSolver: backend '" + name +
                  "' streams in place (capability 'inPlaceStreaming'); "
                  "patch ghost exchange needs the two-lattice A-B contract");
  }

  void exchangeGhosts() {
    const int q = D::Q;
    const int me = comm_.rank();
    // Post all inter-rank receives first (eager sends may land any time).
    for (auto& [id, p] : patches_) {
      for (std::size_t li = 0; li < p.links.size(); ++li) {
        const auto& l = p.links[li];
        const int peerRank = owners_[static_cast<std::size_t>(l.peer)];
        if (peerRank == me) continue;
        auto& buf = p.recvBufs[li];
        buf.resize(static_cast<std::size_t>(l.recvBox.volume()) * q *
                   sizeof(S));
        p.pending[li] =
            comm_.irecv(peerRank, ghostTag(id, l.recvTag), buf.data(),
                        buf.size());
      }
    }
    // Pack + send inter-rank strips in HaloExchange's strip order — one
    // order for every block, whichever backend the two patches run.
    for (auto& [id, p] : patches_) {
      const Field& src = p.block.f();
      for (std::size_t li = 0; li < p.links.size(); ++li) {
        const auto& l = p.links[li];
        const int peerRank = owners_[static_cast<std::size_t>(l.peer)];
        if (peerRank == me) continue;
        auto& buf = p.sendBufs[li];
        buf.resize(static_cast<std::size_t>(l.sendBox.volume()) * q *
                   sizeof(S));
        HaloExchange::packStrip(src, l.sendBox,
                                reinterpret_cast<S*>(buf.data()));
        comm_.isend(peerRank, ghostTag(l.peer, l.sendTag), buf.data(),
                    buf.size());
      }
    }
    // Intra-rank faces: pack the owned peer's send strip (mirrored link,
    // identical extents) and unpack it into our halo.  Reads touch
    // interior columns only, writes touch halo cells only, so order
    // between links cannot interfere.
    for (auto& [id, p] : patches_) {
      Field& dst = p.block.f();
      for (const auto& l : p.links) {
        if (owners_[static_cast<std::size_t>(l.peer)] != me) continue;
        const PatchState& peer = patches_.at(l.peer);
        const HaloExchange::Link* ml = nullptr;
        for (const auto& cand : peer.links)
          if (cand.dx == -l.dx && cand.dy == -l.dy) {
            ml = &cand;
            break;
          }
        SWLB_ASSERT(ml && ml->peer == id);
        localStrip_.resize(static_cast<std::size_t>(ml->sendBox.volume()) *
                           static_cast<std::size_t>(q));
        HaloExchange::packStrip(peer.block.f(), ml->sendBox,
                                localStrip_.data());
        HaloExchange::unpackStrip(dst, l.recvBox, localStrip_.data());
      }
    }
    // Wait for and unpack the inter-rank strips.
    for (auto& [id, p] : patches_) {
      Field& dst = p.block.f();
      for (std::size_t li = 0; li < p.links.size(); ++li) {
        const auto& l = p.links[li];
        if (owners_[static_cast<std::size_t>(l.peer)] == me) continue;
        p.pending[li].wait();
        HaloExchange::unpackStrip(
            dst, l.recvBox,
            reinterpret_cast<const S*>(p.recvBufs[li].data()));
      }
    }
  }

  /// Measured-trigger rebalance (runs inside step() on every rank at the
  /// same step count, so the collectives line up).
  void rebalanceMeasured() {
    obs::TraceScope scope("patch.rebalance");
    const std::vector<double> w = measuredWeights();
    const double imb =
        PatchLayout::rankImbalance(owners_, w, comm_.size());
    obs::gaugeSet("patch.imbalance", imb);
    if (imb <= cfg_.rebalanceThreshold) return;
    if (rebalanceNow(w, cfg_.rebalanceThreshold) > 0)
      obs::count("patch.rebalances");
  }

  /// Apply a move plan: senders ship the current-parity buffer verbatim
  /// (raw storage elements — the same bytes a checkpoint would carry)
  /// plus the patch's measured EMA; receivers rebuild the patch locally
  /// (at the current step and parity, so the payload lands in the buffer
  /// that is current) and drop the payload in.  Every rank applies the
  /// same plan, so the owner table stays replicated.
  void migrate(const std::vector<PatchLayout::Move>& moves) {
    const int me = comm_.rank();
    for (const auto& m : moves) {
      if (m.from == me) {
        const PatchState& p = patches_.at(m.patch);
        const Field& f = p.block.f();
        comm_.isend(m.to, kMigrateTagBase + 2 * m.patch, f.data(), f.bytes());
        const double ema = p.emaInit ? p.ema : 0.0;
        comm_.send(m.to, kMigrateTagBase + 2 * m.patch + 1, &ema,
                   sizeof(ema));
        patches_.erase(m.patch);
        obs::count("patch.migrations");
      } else if (m.to == me) {
        auto [it, inserted] = patches_.emplace(m.patch, buildPatch(m.patch));
        SWLB_ASSERT(inserted);
        PatchState& p = it->second;
        Field& f = p.block.f();
        comm_.recv(m.from, kMigrateTagBase + 2 * m.patch, f.data(), f.bytes());
        double ema = 0;
        comm_.recv(m.from, kMigrateTagBase + 2 * m.patch + 1, &ema,
                   sizeof(ema));
        p.ema = ema;
        p.emaInit = ema > 0;
        obs::count("patch.migrated_bytes", f.bytes());
      }
      owners_[static_cast<std::size_t>(m.patch)] = m.to;
    }
    obs::gaugeSet("patch.owned", static_cast<double>(patches_.size()));
  }

  std::size_t localCellCount() const {
    std::size_t n = 0;
    for (const auto& [id, p] : patches_)
      n += static_cast<std::size_t>(p.box.volume());
    return n;
  }

  Comm& comm_;
  Config cfg_;
  PatchLayout layout_;
  MaskField globalMask_;
  MaterialTable mats_;
  std::vector<int> owners_;
  std::map<int, PatchState> patches_;  // owned patches, ascending id
  std::vector<S> localStrip_;  // scratch for intra-rank ghost copies
  int parity_ = 0;
  std::uint64_t steps_ = 0;
  bool maskFinal_ = false;
  double computeSeconds_ = 0;
};

}  // namespace swlb::runtime
