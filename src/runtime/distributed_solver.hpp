// Multi-rank LBM engine: the one distributed step of paper §IV-C — 2-D xy
// blocks (§IV-C1) with the sequential or on-the-fly halo exchange of
// Figs. 6/9.  Group checkpoint/restart (runtime/parallel_io.hpp) and the
// resilient driver (runtime/resilience.hpp) run on the same blocks.
//
// The global box is split into a patch grid (runtime/patches.hpp) and each
// rank owns the blocks PatchLayout assigns it, every one a swlb::Solver
// (core/solver.hpp): the block owns its population buffers, mask, backend
// and parity; this class owns the layout, the ghost exchange and the step
// schedule around the blocks' sweeps.  One block per rank — the default —
// is the paper's decomposition.  Several per rank let fluid-weighted
// bisection and measured rebalancing even out solid-heavy masks
// (DESIGN.md §13).  Every layout is bit-identical to the monolithic
// solver.
//
// In Sequential mode each step is: halo exchange, then update every block.
// In Overlap mode receives are posted and sends packed first, the *inner*
// cells of every block (which need no ghost data) are updated while
// messages are in flight, and the one-cell boundary shells are updated
// after the halo lands — hiding almost all communication cost behind
// computation.
#pragma once

#include <chrono>
#include <map>
#include <utility>

#include "coll/coll.hpp"
#include "core/solver.hpp"
#include "io/checkpoint.hpp"
#include "obs/context.hpp"
#include "runtime/halo.hpp"
#include "runtime/patches.hpp"

namespace swlb::runtime {

/// `S` selects the population storage precision (see core/precision.hpp);
/// halo traffic, checkpoints and the byte-based perf model all scale with
/// sizeof(S).  Collision arithmetic stays in Real.
template <class D, class S = Real>
class DistributedSolver {
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
    /// Overlap sweeps the inner box and the shell in separate calls, so
    /// construction rejects it when any block's backend is whole-block
    /// (!caps.subRange: swcpe) or in place (esoteric); run those under
    /// Sequential.  halo_mode_for (runtime/halo.hpp) is that rule.
    HaloMode mode = HaloMode::Overlap;
    /// Patch grid; {0,0,0} selects Decomposition::choose of
    /// patchesPerRank * comm.size() patches.  Fewer patches than ranks
    /// throws.
    Int3 patchGrid{0, 0, 0};
    int patchesPerRank = 1;
    /// How more patches than ranks are dealt out at finalizeMask; with
    /// exactly one patch per rank, rank r owns patch r.
    Assignment assignment = Assignment::FluidWeighted;
    /// Every `rebalanceEvery` steps, allreduce the measured per-block
    /// step-time EMAs and migrate blocks if the measured imbalance
    /// exceeds `rebalanceThreshold` (maybeRebalance, which run() and
    /// ResilientRunner call between steps).  0 disables.  In-place blocks
    /// migrate at even phases only, so a check that falls due at an odd
    /// phase runs one step later.
    std::uint64_t rebalanceEvery = 0;
    double rebalanceThreshold = 1.10;
    /// EMA smoothing of the per-block step-time measurements.
    double emaAlpha = 0.3;
    /// Stream/collide backend of every block by registry name
    /// (core/backend.hpp).  In-place backends (esoteric) free the second
    /// buffer and only communicate on even steps (halved exchange
    /// frequency).
    std::string backend = "fused";
    /// Per-patch overrides (patch id -> backend name): a heterogeneous
    /// plan.  Every rank passes the same map; migration re-creates a
    /// block's backend on its new owner from it.  A plan may not mix
    /// in-place and two-lattice backends.
    std::map<int, std::string> patchBackends;
    /// Host threads each caps.subRange sweep is split across (<= 0 = one
    /// per hardware core; see Solver::setHostThreads).  The blocks of a
    /// rank share its one team.
    int hostThreads = 1;
  };

  /// Validates the configuration on every rank, so a bad name or a
  /// capability conflict fails identically everywhere.
  DistributedSolver(Comm& comm, const Config& cfg)
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
      throw Error("DistributedSolver: " +
                  std::to_string(layout_.patchCount()) + " patches for " +
                  std::to_string(comm_.size()) +
                  " ranks; every rank needs at least one");
    inPlace_ = checkBackendPlan();
  }

  Comm& comm() { return comm_; }
  const PatchLayout& layout() const { return layout_; }
  /// The patch grid; block ids are its rank ids.
  const Decomposition& decomposition() const { return layout_.decomposition(); }
  MaterialTable& materials() { return mats_; }
  /// The replicated global mask (paint before finalizeMask; every rank
  /// must paint identically — same contract as a collective).
  MaskField& globalMask() { return globalMask_; }
  /// Owner rank of every block (replicated).
  const std::vector<int>& owners() const { return owners_; }
  /// Backend block `id` runs (its override, else the default) — the same
  /// on every rank, owned or not.
  const std::string& patchBackendName(int id) const {
    const auto it = cfg_.patchBackends.find(id);
    return it != cfg_.patchBackends.end() ? it->second : cfg_.backend;
  }
  const std::string& backendName() const { return cfg_.backend; }
  /// True when the blocks stream in place (Esoteric-Pull).
  bool inPlace() const { return inPlace_; }

  // ---- one block per rank ---------------------------------------------
  // These assume the rank owns exactly one block (the default layout)
  // and throw swlb::Error otherwise.
  const Box3& ownedBox() const { return only().box; }
  const Grid& localGrid() const { return only().solver.grid(); }
  const MaskField& mask() const { return only().solver.mask(); }
  /// This rank's block (local coordinates, one ghost layer).
  Solver<D, S>& block() { return only().solver; }
  const Solver<D, S>& block() const { return only().solver; }
  const Field& f() const { return only().solver.f(); }
  Field& f() { return only().solver.f(); }
  Real density(int x, int y, int z) const {
    return only().solver.density(x, y, z);
  }
  Vec3 velocity(int x, int y, int z) const {
    return only().solver.velocity(x, y, z);
  }

  /// Call fn(id, global box, block) for every owned block, ascending id.
  template <class Fn>
  void forEachBlock(Fn&& fn) {
    for (auto& [id, b] : blocks_) fn(id, b.box, b.solver);
  }

  /// Paint material `id` over a box given in *global* coordinates.
  void paintGlobal(const Box3& globalBox, std::uint8_t id) {
    if (finalized_)
      throw Error("DistributedSolver: paintGlobal after finalizeMask; the "
                  "blocks were already built from the global mask");
    const Box3 b = intersect(
        globalBox, Box3{{0, 0, 0}, {cfg_.global.x, cfg_.global.y,
                                    cfg_.global.z}});
    for (int z = b.lo.z; z < b.hi.z; ++z)
      for (int y = b.lo.y; y < b.hi.y; ++y)
        for (int x = b.lo.x; x < b.hi.x; ++x) globalMask_(x, y, z) = id;
  }

  /// Finish setup: deal the patches to ranks and build the owned blocks,
  /// each with its padded mask (interior and ghost ring) read from the
  /// replicated global mask, and its link plan.  Every rank derives the
  /// same owner table from the same mask, so no messages are needed.
  void finalizeMask() {
    if (finalized_) return;
    owners_ = initialOwners();
    for (int p = 0; p < layout_.patchCount(); ++p)
      if (owners_[static_cast<std::size_t>(p)] == comm_.rank())
        blocks_.emplace(p, buildBlock(p));
    refreshSlots();
    finalized_ = true;
    obs::gaugeSet("patch.owned", static_cast<double>(blocks_.size()));
    obs::gaugeSet("patch.total", static_cast<double>(layout_.patchCount()));
  }

  /// Equilibrium initialization from a *global*-coordinate field function.
  void initField(const std::function<void(int, int, int, Real&, Vec3&)>& fn) {
    finalizeMask();
    for (auto& [id, b] : blocks_) {
      const Int3 lo = b.box.lo;
      b.solver.initField([&](int x, int y, int z, Real& rho, Vec3& u) {
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

  // Phase names below ("z_wrap", "halo.post", "compute.interior", ...) are
  // the observability layer's contract: each is one trace event per step
  // per rank and one histogram observation (DESIGN.md §6).  Top-level
  // phases are disjoint sub-intervals of "step", so their times sum to at
  // most the step time — an invariant test_obs_integration checks.
  //
  // In-place (Esoteric-Pull) blocks run the Sequential schedule.  Even
  // phase: local z wrap, forward exchange (the gather pulls from the halo
  // exactly like the fused kernel), one whole-interior in-place sweep,
  // then the *reverse* exchange + local reverse z wrap fold the outward
  // scatter back to its owners.  Odd phase: sweeps only — no
  // communication at all, halving the exchange frequency relative to the
  // two-lattice schedule.
  void step() {
    obs::TraceScope stepScope("step");
    SWLB_ASSERT(finalized_);
    for (auto& [id, b] : blocks_) b.seconds = 0;
    if (inPlace_ && parity_ == 1) {
      obs::TraceScope computeScope("compute.interior");
      for (auto& [id, b] : blocks_) sweep(b, b.solver.grid().interior());
    } else {
      {
        // z is never decomposed: wrap it locally before the x/y exchange
        // so the exchanged strips carry valid z-halo rows.
        obs::TraceScope zScope("z_wrap");
        for (auto& [id, b] : blocks_) b.solver.wrapHalo();
      }
      if (cfg_.mode == HaloMode::Sequential) {
        exchange(false);
        {
          obs::TraceScope computeScope("compute.interior");
          for (auto& [id, b] : blocks_) sweep(b, b.solver.grid().interior());
        }
        if (inPlace_) {
          exchange(true);
          obs::TraceScope zScope("z_wrap");
          for (auto& [id, b] : blocks_) b.solver.unwrapHalo();
        }
      } else {
        {
          obs::TraceScope postScope("halo.post");
          post(false);
        }
        {
          obs::TraceScope computeScope("compute.interior");
          for (auto& [id, b] : blocks_) sweep(b, b.inner);
        }
        {
          obs::TraceScope finishScope("halo.finish");
          finish(false);
        }
        obs::TraceScope frontierScope("compute.frontier");
        for (auto& [id, b] : blocks_)
          for (const Box3& box : b.shell) sweep(b, box);
      }
    }
    for (auto& [id, b] : blocks_) {
      b.solver.advance();
      b.ema = b.emaInit
                  ? cfg_.emaAlpha * b.seconds + (1 - cfg_.emaAlpha) * b.ema
                  : b.seconds;
      b.emaInit = true;
      computeSeconds_ += b.seconds;
      obs::observe("patch.step_seconds", b.seconds);
    }
    parity_ = 1 - parity_;
    ++steps_;
  }

  /// n steps, each followed by the measured rebalance when it is due.
  void run(std::uint64_t n) {
    for (std::uint64_t s = 0; s < n; ++s) {
      step();
      maybeRebalance();
    }
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
  /// Restore step counter and A-B parity (group checkpoint restart).
  /// In-place checkpoints must be cut at an even phase (natural layout);
  /// any other parity throws before a block changes (the blocks share
  /// one kind of backend, so the first refuses if any would).
  void restoreState(std::uint64_t steps, int parity) {
    for (auto& [id, b] : blocks_) b.solver.restoreState(steps, parity);
    steps_ = steps;
    parity_ = parity;
  }

  /// Total fluid mass across all ranks (collective).
  Real globalMass() { return comm_.allreduce(localMass(), Comm::Op::Sum); }

  /// Fluid mass of this rank's blocks only (local; the resilient runner's
  /// divergence guard folds it into one well-ordered allreduce).
  Real localMass() const {
    Real m = 0;
    for (const auto& [id, b] : blocks_) m += b.solver.totalMass();
    return m;
  }

  /// Local NaN/Inf guard over the block interiors (Solver::
  /// populationsFinite).  Purely local so it can run inside a step's try
  /// block without risking a mismatched collective.
  bool populationsFinite() const {
    for (const auto& [id, b] : blocks_)
      if (!b.solver.populationsFinite()) return false;
    return true;
  }

  /// The one gather of interior cells to `root` (collective): every rank
  /// packs `width` Reals per cell of each owned block — `pack(block, out)`
  /// writes them cell by cell in z, y, x order — and root hands each
  /// global cell's values to `place(x, y, z, values)`.  Variable-size
  /// gatherv with all receives posted up front, so a slow rank never
  /// serializes the others behind it.
  template <class Pack, class Place>
  void gatherCells(int root, int width, Pack&& pack, Place&& place) {
    std::vector<Real> local;
    for (const auto& [id, b] : blocks_) {
      const std::size_t at = local.size();
      local.resize(at + static_cast<std::size_t>(b.box.volume()) * width);
      pack(b.solver, local.data() + at);
    }
    std::vector<std::size_t> counts(static_cast<std::size_t>(comm_.size()), 0);
    std::size_t total = 0;
    for (int p = 0; p < layout_.patchCount(); ++p) {
      const std::size_t c =
          static_cast<std::size_t>(layout_.boxOf(p).volume()) * width;
      counts[static_cast<std::size_t>(owners_[static_cast<std::size_t>(p)])] +=
          c;
      total += c;
    }
    coll::Collectives cs(comm_);
    if (comm_.rank() != root) {
      cs.gatherv<Real>(root, local, counts, {});
      return;
    }
    std::vector<Real> all(total);
    cs.gatherv<Real>(root, local, counts, all);
    const Real* v = all.data();
    for (int r = 0; r < comm_.size(); ++r)
      for (int p = 0; p < layout_.patchCount(); ++p) {
        if (owners_[static_cast<std::size_t>(p)] != r) continue;
        const Box3 box = layout_.boxOf(p);
        for (int z = box.lo.z; z < box.hi.z; ++z)
          for (int y = box.lo.y; y < box.hi.y; ++y)
            for (int x = box.lo.x; x < box.hi.x; ++x, v += width)
              place(x, y, z, v);
      }
  }

  /// Gather the full population field on `root` (interior cells, decoded
  /// to Real, so the result is a plain double field whatever the storage
  /// precision; other ranks receive an empty field).  Collective.
  PopulationField gatherPopulations(int root) {
    PopulationField out;
    if (comm_.rank() == root)
      out = PopulationField(Grid(cfg_.global.x, cfg_.global.y, cfg_.global.z),
                            D::Q);
    gatherCells(
        root, D::Q,
        [](const Solver<D, S>& b, Real* o) {
          const Grid& g = b.grid();
          for (int z = 0; z < g.nz; ++z)
            for (int y = 0; y < g.ny; ++y)
              for (int x = 0; x < g.nx; ++x)
                for (int q = 0; q < D::Q; ++q) *o++ = b.population(q, x, y, z);
        },
        [&](int x, int y, int z, const Real* v) {
          for (int q = 0; q < D::Q; ++q) out(q, x, y, z) = v[q];
        });
    return out;
  }

  /// Bytes this rank sends per exchange (remote links only; copies to
  /// blocks on the same rank never touch the wire) — input to the network
  /// model.  Tracks the storage element size.
  std::size_t haloBytesPerStep() const {
    std::size_t bytes = 0;
    for (const auto& [id, b] : blocks_)
      for (const HaloPlan::Link& l : b.plan.links())
        if (owners_[static_cast<std::size_t>(l.peer)] != comm_.rank())
          bytes += HaloPlan::stripElements<D>(l, false) * sizeof(S);
    return bytes;
  }

  // ---- load balancing ---------------------------------------------------

  /// This rank's accumulated sweep seconds (the balance target).
  double computeSeconds() const { return computeSeconds_; }

  /// Measured per-block step-time EMAs, allreduced so every rank sees the
  /// full vector (collective, deterministic reduction order).
  std::vector<double> measuredWeights() {
    std::vector<double> w(static_cast<std::size_t>(layout_.patchCount()), 0.0);
    for (const auto& [id, b] : blocks_)
      w[static_cast<std::size_t>(id)] = b.emaInit ? b.ema : 0.0;
    coll::Collectives cs(comm_);
    cs.allreduce(std::span<double>(w.data(), w.size()), coll::Op::Sum);
    return w;
  }

  /// Measured rank imbalance (max/mean of per-rank EMA sums).  Collective.
  double measuredImbalance() {
    return PatchLayout::rankImbalance(owners_, measuredWeights(),
                                      comm_.size());
  }

  /// Measured-trigger rebalance: when `rebalanceEvery` is due at the
  /// current step (io::checkpoint_due, so in-place blocks defer an odd
  /// phase by one step), allreduce the measured weights and migrate blocks
  /// if the imbalance exceeds `rebalanceThreshold`.  Returns the number of
  /// blocks migrated.  Collective, and kept out of step() so a step holds
  /// no collective: run() calls it after every step, ResilientRunner only
  /// after a step its vote accepted.
  int maybeRebalance() {
    if (cfg_.rebalanceEvery == 0 ||
        !io::checkpoint_due(*this, cfg_.rebalanceEvery))
      return 0;
    obs::TraceScope scope("patch.rebalance");
    const std::vector<double> w = measuredWeights();
    const double imb = PatchLayout::rankImbalance(owners_, w, comm_.size());
    obs::gaugeSet("patch.imbalance", imb);
    if (imb <= cfg_.rebalanceThreshold) return 0;
    const int moved = rebalanceNow(w, cfg_.rebalanceThreshold);
    if (moved > 0) obs::count("patch.rebalances");
    return moved;
  }

  /// Rebalance now against an explicit weight vector (every rank must
  /// pass identical weights — e.g. from measuredWeights()).  Returns the
  /// number of blocks migrated.  Collective.  In-place blocks hold the
  /// rotated layout after an odd step, which no block can be rebuilt
  /// from, so this throws at an odd in-place phase.
  int rebalanceNow(const std::vector<double>& weights, double threshold) {
    if (inPlace_ && parity_ == 1)
      throw Error("DistributedSolver: in-place blocks migrate at even phases "
                  "only; rebalance after an even number of steps");
    const auto moves =
        layout_.planRebalance(owners_, weights, comm_.size(), threshold);
    if (!moves.empty()) migrate(moves);
    return static_cast<int>(moves.size());
  }

 private:
  struct Owned {
    Box3 box;  // global coordinates
    /// The block: buffers, padded mask, parity and its own backend
    /// instance (rebuilt from the replicated Config plan on migration —
    /// backend state never travels).
    Solver<D, S> solver;
    HaloPlan plan;
    Box3 inner;               // Overlap: swept while strips are in flight
    std::vector<Box3> shell;  // Overlap: swept after they land
    std::vector<std::vector<std::uint8_t>> sendBufs, recvBufs;  // per link
    std::vector<Request> pending;
    double seconds = 0;  // sweep seconds this step
    double ema = 0;      // measured step-seconds EMA (travels on migration)
    bool emaInit = false;

    Owned(const Box3& box_, Solver<D, S> solver_, const HaloPlan& plan_)
        : box(box_),
          solver(std::move(solver_)),
          plan(plan_),
          inner(plan_.innerBox()),
          shell(plan_.boundaryShell()),
          sendBufs(plan_.links().size()),
          recvBufs(plan_.links().size()),
          pending(plan_.links().size()) {}
  };

  // Ghost tags: slot * 32 + direction tag, reverse strips 16 above the
  // forward ones, where slot is the receiving block's index among the
  // blocks its rank owns.  A rank with one block has slot 0, i.e. exactly
  // the forward tags 0..8 and reverse tags 16..24 of the one-block-per-rank
  // exchange.  Migration tags sit far above.
  static constexpr int kReverseTag = 16;
  static constexpr int kSlotTags = 32;
  static constexpr int kMigrateTagBase = 1 << 24;
  int ghostTag(int destBlock, int dirTag, bool reverse) const {
    return slot_[static_cast<std::size_t>(destBlock)] * kSlotTags +
           (reverse ? kReverseTag : 0) + dirTag;
  }

  const Owned& only() const {
    if (blocks_.size() != 1)
      throw Error("DistributedSolver: this rank owns " +
                  std::to_string(blocks_.size()) +
                  " blocks; the one-block accessors need exactly one");
    return blocks_.begin()->second;
  }
  Owned& only() {
    return const_cast<Owned&>(std::as_const(*this).only());
  }

  /// Reject a backend plan the engine cannot drive — explicitly, naming
  /// the capability that failed, never by substituting another backend.
  /// Returns whether the blocks stream in place.
  bool checkBackendPlan() const {
    std::vector<std::string> names;
    for (const auto& [id, name] : cfg_.patchBackends) {
      if (id < 0 || id >= layout_.patchCount())
        throw Error("DistributedSolver: patchBackends names patch " +
                    std::to_string(id) + " but the layout has " +
                    std::to_string(layout_.patchCount()) + " patches");
      names.push_back(name);
    }
    if (cfg_.patchBackends.size() <
        static_cast<std::size_t>(layout_.patchCount()))
      names.push_back(cfg_.backend);
    std::string inPlace, twoLattice;
    for (const std::string& name : names) {
      // make_backend throws the registered-list error on an unknown name.
      const BackendCaps caps = make_backend<D, S>(name)->info().caps;
      (caps.inPlaceStreaming ? inPlace : twoLattice) = name;
      if (halo_mode_for(name, cfg_.mode) != cfg_.mode)
        throw Error("DistributedSolver: backend '" + name +
                    "' cannot split its sweep around the exchange (" +
                    (caps.subRange ? "capability 'inPlaceStreaming' is on"
                                   : "capability 'subRange' is off") +
                    "); the Overlap halo mode needs that, use Sequential");
    }
    if (!inPlace.empty() && !twoLattice.empty())
      throw Error("DistributedSolver: backend plan mixes in-place '" +
                  inPlace + "' and two-lattice '" + twoLattice +
                  "' blocks (capability 'inPlaceStreaming' differs); one "
                  "step schedule needs one kind");
    return !inPlace.empty();
  }

  /// One patch per rank: rank r owns patch r.  More: fluid-weighted (or
  /// uniform-count) bisection along the Morton curve.
  std::vector<int> initialOwners() const {
    const int n = layout_.patchCount();
    std::vector<int> owners(static_cast<std::size_t>(n));
    if (n == comm_.size()) {
      for (int p = 0; p < n; ++p) owners[static_cast<std::size_t>(p)] = p;
      return owners;
    }
    std::vector<double> w(static_cast<std::size_t>(n), 1.0);
    if (cfg_.assignment == Assignment::FluidWeighted) {
      w = layout_.fluidWeights(globalMask_, mats_);
      double total = 0;
      for (double v : w) total += v;
      if (total <= 0) w.assign(w.size(), 1.0);
    }
    return layout_.assignBisect(w, comm_.size());
  }

  void refreshSlots() {
    slot_.assign(owners_.size(), 0);
    std::vector<int> next(static_cast<std::size_t>(comm_.size()), 0);
    for (std::size_t p = 0; p < owners_.size(); ++p)
      slot_[p] = next[static_cast<std::size_t>(owners_[p])]++;
  }

  /// Mask oracle in global coordinates: periodic axes wrap, anything
  /// outside the domain is solid — the ghost ring every block needs.
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

  /// Block `id` at the engine's current step and parity, its padded mask
  /// copied from the replicated global mask.  Only the populations are
  /// left to the caller.
  Owned buildBlock(int id) const {
    const Box3 box = layout_.boxOf(id);
    const Grid grid(box.hi.x - box.lo.x, box.hi.y - box.lo.y,
                    box.hi.z - box.lo.z);
    Owned b(box,
            Solver<D, S>(grid, cfg_.collision,
                         Periodicity{false, false, cfg_.periodic.z}),
            HaloPlan(layout_.decomposition(), id, cfg_.periodic, grid));
    Solver<D, S>& s = b.solver;
    s.materials() = mats_;
    s.setBackend(patchBackendName(id));
    s.setHostThreads(cfg_.hostThreads);
    s.restoreState(steps_, parity_);
    auto copyMask = [&] {
      for (int z = -1; z <= grid.nz; ++z)
        for (int y = -1; y <= grid.ny; ++y)
          for (int x = -1; x <= grid.nx; ++x)
            s.mask()(x, y, z) =
                maskAt(x + box.lo.x, y + box.lo.y, z + box.lo.z);
    };
    // Before finalizeMask so the backend validates the real interior, and
    // again after it to restore the ghost ring its fill_halo_mask walls
    // off (KernelBackend::init reads interior cells only).
    copyMask();
    s.finalizeMask();
    copyMask();
    return b;
  }

  void sweep(Owned& b, const Box3& range) {
    const auto t0 = std::chrono::steady_clock::now();
    b.solver.sweep(range);
    b.seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  }

  // ---- the ghost exchange -----------------------------------------------
  // One transport for both directions.  Forward ships each block's edge
  // (sendBox, every slot) into the peer's halo; reverse ships the deposits
  // an even in-place sweep left in the halo (recvBox) back onto the
  // peer's edge (sendBox), slot-filtered (HaloPlan::packReverse).  A link
  // to a block on another rank is a message; a link to a block on this
  // rank — an intra-rank patch face or a periodic axis one block wide —
  // is a copy.

  void exchange(bool reverse) {
    obs::TraceScope haloScope("halo.exchange");
    post(reverse);
    finish(reverse);
  }

  /// Post every remote receive, then pack and send every remote strip.
  void post(bool reverse) {
    const int me = comm_.rank();
    for (auto& [id, b] : blocks_)
      for (std::size_t i = 0; i < b.plan.links().size(); ++i) {
        const HaloPlan::Link& l = b.plan.links()[i];
        const int peerRank = owners_[static_cast<std::size_t>(l.peer)];
        if (peerRank == me) continue;
        auto& buf = b.recvBufs[i];
        buf.resize(HaloPlan::stripElements<D>(l, reverse) * sizeof(S));
        b.pending[i] = comm_.irecv(peerRank, ghostTag(id, l.recvTag, reverse),
                                   buf.data(), buf.size());
      }
    obs::TraceScope packScope("halo.pack");
    for (auto& [id, b] : blocks_)
      for (std::size_t i = 0; i < b.plan.links().size(); ++i) {
        const HaloPlan::Link& l = b.plan.links()[i];
        const int peerRank = owners_[static_cast<std::size_t>(l.peer)];
        if (peerRank == me) continue;
        auto& buf = b.sendBufs[i];
        buf.resize(HaloPlan::stripElements<D>(l, reverse) * sizeof(S));
        packLink(b.solver.f(), l, reinterpret_cast<S*>(buf.data()), reverse);
        comm_.isend(peerRank, ghostTag(l.peer, l.sendTag, reverse), buf.data(),
                    buf.size());
      }
  }

  /// Wait for and unpack the remote strips and copy the local ones, every
  /// face before any corner.  Reverse needs that order: a face strip
  /// reaches the corner cell, where its diagonal slot is stale on the
  /// sender (the canonical writer is the diagonal block), so the corner
  /// strip must land last.  Forward strips are disjoint.
  void finish(bool reverse) {
    const int me = comm_.rank();
    for (int pass = 0; pass < 2; ++pass)
      for (auto& [id, b] : blocks_)
        for (std::size_t i = 0; i < b.plan.links().size(); ++i) {
          const HaloPlan::Link& l = b.plan.links()[i];
          if ((l.dx != 0 && l.dy != 0) != (pass == 1)) continue;
          const bool remote = owners_[static_cast<std::size_t>(l.peer)] != me;
          if (remote) {
            obs::TraceScope waitScope("halo.wait");
            b.pending[i].wait();
          }
          obs::TraceScope unpackScope("halo.unpack");
          const S* in =
              remote ? reinterpret_cast<const S*>(b.recvBufs[i].data())
                     : localStrip(id, l, reverse);
          if (reverse)
            HaloPlan::unpackReverse<D>(b.solver.f(), l, in);
          else
            HaloPlan::unpackStrip(b.solver.f(), l.recvBox, in);
        }
  }

  static void packLink(const Field& f, const HaloPlan::Link& l, S* out,
                       bool reverse) {
    if (reverse)
      HaloPlan::packReverse<D>(f, l, out);
    else
      HaloPlan::packStrip(f, l.sendBox, out);
  }

  /// The strip owned peer `l.peer` would send block `id` over link `l`:
  /// packed from the peer's mirrored link into scratch.
  const S* localStrip([[maybe_unused]] int id, const HaloPlan::Link& l,
                      bool reverse) {
    const Owned& peer = blocks_.at(l.peer);
    const HaloPlan::Link* ml = nullptr;
    for (const HaloPlan::Link& cand : peer.plan.links())
      if (cand.dx == -l.dx && cand.dy == -l.dy) ml = &cand;
    SWLB_ASSERT(ml && ml->peer == id);
    scratch_.resize(HaloPlan::stripElements<D>(*ml, reverse));
    packLink(peer.solver.f(), *ml, scratch_.data(), reverse);
    return scratch_.data();
  }

  // ---- migration ----------------------------------------------------------

  /// Apply a move plan: senders ship the current-parity buffer verbatim
  /// (raw storage elements — the same bytes a checkpoint would carry)
  /// plus the block's measured EMA; receivers rebuild the block locally
  /// (at the current step and parity, so the payload lands in the buffer
  /// that is current) and drop the payload in.  Every rank applies the
  /// same plan, so the owner table stays replicated.
  void migrate(const std::vector<PatchLayout::Move>& moves) {
    const int me = comm_.rank();
    for (const auto& m : moves) {
      const int tag = kMigrateTagBase + 2 * m.patch;
      if (m.from == me) {
        const Owned& b = blocks_.at(m.patch);
        const Field& f = b.solver.f();
        comm_.isend(m.to, tag, f.data(), f.bytes());
        const double ema = b.emaInit ? b.ema : 0.0;
        comm_.send(m.to, tag + 1, &ema, sizeof(ema));
        blocks_.erase(m.patch);
        obs::count("patch.migrations");
      } else if (m.to == me) {
        auto [it, inserted] = blocks_.emplace(m.patch, buildBlock(m.patch));
        SWLB_ASSERT(inserted);
        Owned& b = it->second;
        Field& f = b.solver.f();
        comm_.recv(m.from, tag, f.data(), f.bytes());
        double ema = 0;
        comm_.recv(m.from, tag + 1, &ema, sizeof(ema));
        b.ema = ema;
        b.emaInit = ema > 0;
        obs::count("patch.migrated_bytes", f.bytes());
      }
      owners_[static_cast<std::size_t>(m.patch)] = m.to;
    }
    refreshSlots();
    obs::gaugeSet("patch.owned", static_cast<double>(blocks_.size()));
  }

  Comm& comm_;
  Config cfg_;
  PatchLayout layout_;
  MaskField globalMask_;
  MaterialTable mats_;
  bool inPlace_ = false;
  std::vector<int> owners_;
  std::vector<int> slot_;  // per block: index among its owner's blocks
  std::map<int, Owned> blocks_;  // owned blocks, ascending id
  std::vector<S> scratch_;       // intra-rank strip copies
  int parity_ = 0;
  std::uint64_t steps_ = 0;
  bool finalized_ = false;
  double computeSeconds_ = 0;
};

}  // namespace swlb::runtime
