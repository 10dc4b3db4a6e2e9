// Multi-rank LBM solver: 2-D xy domain decomposition with sequential or
// on-the-fly (overlapped) halo exchange — the structure of paper Figs. 6/9.
//
// In Sequential mode each step is: halo exchange, then update the whole
// subdomain.  In Overlap mode receives are posted and sends packed first,
// the *inner* cells (which need no remote data) are updated while messages
// are in flight, and the one-cell boundary shell is updated after the halo
// lands — hiding almost all communication cost behind computation.
//
// Every rank owns exactly one uniform block here.  For workloads where
// the uniform volume split leaves ranks idle (solid-heavy masks), the
// patch-aware mode in runtime/patches.hpp (PatchSolver, DESIGN.md §13)
// splits the domain into many small patches per rank, balances them by
// fluid weight or measured step time, and stays bit-identical to this
// solver and the monolithic one.
#pragma once

#include <chrono>
#include <cmath>

#include "coll/coll.hpp"
#include "core/backends.hpp"
#include "core/kernels.hpp"
#include "core/macroscopic.hpp"
#include "core/observables.hpp"
#include "core/solver.hpp"
#include "obs/context.hpp"
#include "runtime/halo.hpp"

namespace swlb::runtime {

// HaloMode (Sequential vs Overlap scheduling) lives in runtime/halo.hpp.

/// `S` selects the population storage precision (see core/precision.hpp);
/// halo traffic, checkpoints and the byte-based perf model all scale with
/// sizeof(S).  Collision arithmetic stays in Real.
template <class D, class S = Real>
class DistributedSolver {
 public:
  using Field = PopulationFieldT<S>;
  struct Config {
    Int3 global{0, 0, 0};
    CollisionConfig collision;
    Periodicity periodic;
    HaloMode mode = HaloMode::Overlap;
    /// Process grid; {0,0,0} selects Decomposition::choose(comm.size()).
    Int3 procGrid{0, 0, 0};
    /// Stream/collide backend by registry name (core/backend.hpp).
    /// Backends without caps.distributed (twostep, push) are rejected at
    /// construction.  In-place backends (esoteric) free the second
    /// buffer and only communicate on even steps (halved exchange
    /// frequency); their step always runs the sequential-style schedule
    /// regardless of `mode`, because the in-place sweep cannot split
    /// into inner/shell passes around an exchange that its own scatter
    /// must precede.  Whole-block backends (!caps.subRange, swcpe) force
    /// HaloMode::Sequential for the same reason.
    std::string backend = "fused";
    /// Host threads each caps.subRange backend call is split across
    /// (<= 0 = one per hardware core; see Solver::setHostThreads).
    int hostThreads = 1;
  };

  DistributedSolver(Comm& comm, const Config& cfg)
      : comm_(comm),
        cfg_(cfg),
        decomp_(cfg.global, cfg.procGrid.x > 0
                                ? cfg.procGrid
                                : Decomposition::choose(comm.size(), cfg.global)),
        owned_(decomp_.blockOf(comm.rank())),
        grid_(owned_.hi.x - owned_.lo.x, owned_.hi.y - owned_.lo.y,
              owned_.hi.z - owned_.lo.z),
        halo_(decomp_, comm.rank(), cfg.periodic, grid_),
        f_{Field(grid_, D::Q), Field(grid_, D::Q)},
        mask_(grid_, MaterialTable::kFluid) {
    if (decomp_.rankCount() != comm.size())
      throw Error("DistributedSolver: process grid does not match world size");
    backend_ = make_backend<D, S>(cfg_.backend);
    const BackendCaps& caps = backend_->info().caps;
    if (!caps.distributed)
      throw Error("DistributedSolver: backend '" + cfg_.backend +
                  "' is a single-rank ablation baseline (capability "
                  "'distributed' is off)");
    // Whole-block backends cannot run the overlap schedule's inner/shell
    // split; drop to the sequential schedule instead of mis-slicing.
    if (!caps.subRange) cfg_.mode = HaloMode::Sequential;
    f_[0].setShift(D::w);
    f_[1].setShift(D::w);
    if (caps.inPlaceStreaming) f_[1] = Field();
    obs::gaugeSet("solver.population_bytes",
                  static_cast<double>(populationBytes()));
  }

  Comm& comm() { return comm_; }
  const Decomposition& decomposition() const { return decomp_; }
  const Box3& ownedBox() const { return owned_; }
  const Grid& localGrid() const { return grid_; }
  MaterialTable& materials() { return mats_; }
  const MaskField& mask() const { return mask_; }
  CollisionConfig& collision() { return cfg_.collision; }

  /// Paint material `id` over a box given in *global* coordinates.
  void paintGlobal(const Box3& globalBox, std::uint8_t id) {
    const Box3 local = intersect(globalBox, owned_);
    for (int z = local.lo.z; z < local.hi.z; ++z)
      for (int y = local.lo.y; y < local.hi.y; ++y)
        for (int x = local.lo.x; x < local.hi.x; ++x)
          mask_(x - owned_.lo.x, y - owned_.lo.y, z - owned_.lo.z) = id;
  }

  /// Finish mask setup: halo defaults to solid, periodic z wraps locally,
  /// x/y halo strips are exchanged with the neighbours.  Collective.
  void finalizeMask() {
    fill_halo_mask(mask_, Periodicity{false, false, zWrapLocal()},
                   MaterialTable::kSolid);
    halo_.exchangeMask(comm_, mask_);
    maskFinal_ = true;
    // Capability validation: in-place backends reject Outflow masks here.
    backend_->init(grid_, mask_, mats_);
  }

  /// Equilibrium initialization from a *global*-coordinate field function.
  void initField(const std::function<void(int, int, int, Real&, Vec3&)>& fn) {
    if (!maskFinal_) finalizeMask();
    Real feq[D::Q];
    for (int z = -1; z <= grid_.nz; ++z)
      for (int y = -1; y <= grid_.ny; ++y)
        for (int x = -1; x <= grid_.nx; ++x) {
          Real rho = 1;
          Vec3 u{0, 0, 0};
          fn(x + owned_.lo.x, y + owned_.lo.y, z + owned_.lo.z, rho, u);
          equilibria<D>(rho, u, feq);
          for (int i = 0; i < D::Q; ++i) {
            f_[0](i, x, y, z) = feq[i];
            if (f_[1].size()) f_[1](i, x, y, z) = feq[i];
          }
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
  void step() {
    obs::TraceScope stepScope("step");
    SWLB_ASSERT(maskFinal_);
    if (inPlace()) {
      stepInPlace();
      parity_ = 1 - parity_;
      ++steps_;
      return;
    }
    Field& src = f_[parity_];
    Field& dst = f_[1 - parity_];
    {
      // z is never decomposed: wrap it locally before the x/y exchange so
      // the exchanged strips carry valid z-halo rows.
      obs::TraceScope zScope("z_wrap");
      apply_periodic(src, Periodicity{false, false, zWrapLocal()});
    }

    if (cfg_.mode == HaloMode::Sequential) {
      {
        obs::TraceScope haloScope("halo.exchange");
        halo_.exchange(comm_, src);
      }
      obs::TraceScope computeScope("compute.interior");
      runKernel(src, dst, grid_.interior());
    } else {
      {
        obs::TraceScope postScope("halo.post");
        halo_.begin(comm_, src);
      }
      {
        obs::TraceScope computeScope("compute.interior");
        runKernel(src, dst, halo_.innerBox());
      }
      {
        obs::TraceScope finishScope("halo.finish");
        halo_.finish(comm_, src);
      }
      obs::TraceScope frontierScope("compute.frontier");
      for (const Box3& b : halo_.boundaryShell()) runKernel(src, dst, b);
    }
    parity_ = 1 - parity_;
    ++steps_;
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
    const double sec =
        comm_.allreduce(std::chrono::duration<double>(t1 - t0).count(), Comm::Op::Max);
    const double cells = static_cast<double>(cfg_.global.x) * cfg_.global.y *
                         cfg_.global.z;
    return cells * static_cast<double>(n) / sec / 1e6;
  }

  std::uint64_t stepsDone() const { return steps_; }
  int parity() const { return parity_; }
  /// Restore step counter and A-B parity (group checkpoint restart).
  /// In-place checkpoints must be cut at an even phase (natural layout).
  void restoreState(std::uint64_t steps, int parity) {
    SWLB_ASSERT(parity == 0 || parity == 1);
    SWLB_ASSERT(!inPlace() || parity == 0);
    steps_ = steps;
    parity_ = parity;
  }
  const Field& f() const { return inPlace() ? f_[0] : f_[parity_]; }
  Field& f() { return inPlace() ? f_[0] : f_[parity_]; }
  const KernelBackend<D, S>& backend() const { return *backend_; }
  const std::string& backendName() const { return backend_->info().name; }
  /// Effective halo schedule (may differ from the configured one when
  /// the backend forces Sequential — see Config::backend docs).
  HaloMode haloMode() const { return cfg_.mode; }

  /// Bytes held in population storage (one lattice under Esoteric).
  std::size_t populationBytes() const {
    return f_[0].bytes() + f_[1].bytes();
  }

  Real density(int lx, int ly, int lz) const {
    Real rho;
    Vec3 u;
    if (rotatedPhase())
      cell_macroscopic<D>(EsotericPhase1View<D, S>(f_[0]), lx, ly, lz,
                          cfg_.collision, rho, u);
    else
      cell_macroscopic<D>(f(), lx, ly, lz, cfg_.collision, rho, u);
    return rho;
  }
  Vec3 velocity(int lx, int ly, int lz) const {
    Real rho;
    Vec3 u;
    if (rotatedPhase())
      cell_macroscopic<D>(EsotericPhase1View<D, S>(f_[0]), lx, ly, lz,
                          cfg_.collision, rho, u);
    else
      cell_macroscopic<D>(f(), lx, ly, lz, cfg_.collision, rho, u);
    return u;
  }

  /// Total fluid mass across all ranks (collective).
  Real globalMass() {
    return comm_.allreduce(localMass(), Comm::Op::Sum);
  }

  /// Fluid mass of this rank's block only (local; the resilient runner's
  /// divergence guard folds it into one well-ordered allreduce).
  Real localMass() const {
    if (rotatedPhase())
      return total_mass<D>(EsotericPhase1View<D, S>(f_[0]), mask_, mats_);
    return total_mass<D>(f(), mask_, mats_);
  }

  /// Globally reduced communication counters (collective): every rank
  /// returns the world totals of the per-rank CommStats accumulated so
  /// far.  One 4-component integer vector allreduce; the reduction's own
  /// traffic is counted after the snapshot, so it does not pollute it.
  CommStats totalStats() {
    std::int64_t v[4] = {
        static_cast<std::int64_t>(comm_.stats().messagesSent),
        static_cast<std::int64_t>(comm_.stats().bytesSent),
        static_cast<std::int64_t>(comm_.stats().messagesReceived),
        static_cast<std::int64_t>(comm_.stats().bytesReceived)};
    coll::Collectives cs(comm_);
    cs.allreduce(std::span<std::int64_t>(v, 4), coll::Op::Sum);
    CommStats total;
    total.messagesSent = static_cast<std::uint64_t>(v[0]);
    total.bytesSent = static_cast<std::uint64_t>(v[1]);
    total.messagesReceived = static_cast<std::uint64_t>(v[2]);
    total.bytesReceived = static_cast<std::uint64_t>(v[3]);
    return total;
  }

  /// Global momentum-exchange force on cells of material `id`
  /// (collective): local obstacle force per rank, folded with one
  /// 3-component vector allreduce — identical on every rank.  Each
  /// fluid->wall link is owned by the rank of its fluid cell, and ghost
  /// masks are exchanged at init, so links crossing rank boundaries are
  /// counted exactly once.
  Vec3 globalForce(std::uint8_t id) {
    const Vec3 local =
        rotatedPhase()
            ? momentum_exchange_force<D>(EsotericPhase1View<D, S>(f_[0]),
                                         mask_, mats_, id)
            : momentum_exchange_force<D>(f(), mask_, mats_, id);
    double v[3] = {local.x, local.y, local.z};
    coll::Collectives cs(comm_);
    cs.allreduce(std::span<double>(v, 3), coll::Op::Sum);
    return {v[0], v[1], v[2]};
  }

  /// Local NaN/Inf guard over the interior of the current population
  /// buffer.  Purely local so it can run inside a step's try block without
  /// risking a mismatched collective.  Ghost layers are excluded: they are
  /// rewritten by the halo exchange before every read, but a stale NaN can
  /// linger there across a rollback (streaming never writes ghosts) and
  /// must not re-trip the guard after recovery.
  bool populationsFinite() const {
    const Field& field = f();
    const Grid& g = field.grid();
    for (int q = 0; q < D::Q; ++q)
      for (int z = 0; z < g.nz; ++z)
        for (int y = 0; y < g.ny; ++y)
          for (int x = 0; x < g.nx; ++x)
            if (!std::isfinite(field(q, x, y, z))) return false;
    return true;
  }

  /// Gather the full population field on `root` (interior cells only;
  /// other ranks receive an empty field).  Collective; test/IO helper.
  /// Values are decoded to Real before the gather, so the result is a
  /// plain double field regardless of the local storage precision.
  /// Variable-size gatherv (blocks differ under uneven decompositions)
  /// with all receives posted up front — a slow rank never serializes the
  /// others behind it.
  PopulationField gatherPopulations(int root) {
    std::vector<Real> local(static_cast<std::size_t>(owned_.volume()) * D::Q);
    packLocal(local);
    std::vector<std::size_t> counts(static_cast<std::size_t>(comm_.size()));
    std::size_t totalCount = 0;
    for (int r = 0; r < comm_.size(); ++r) {
      counts[static_cast<std::size_t>(r)] =
          static_cast<std::size_t>(decomp_.blockOf(r).volume()) * D::Q;
      totalCount += counts[static_cast<std::size_t>(r)];
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
    std::size_t k = 0;
    for (int r = 0; r < comm_.size(); ++r) {
      const Box3 block = decomp_.blockOf(r);
      for (int q = 0; q < D::Q; ++q)
        for (int z = block.lo.z; z < block.hi.z; ++z)
          for (int y = block.lo.y; y < block.hi.y; ++y)
            for (int x = block.lo.x; x < block.hi.x; ++x)
              out(q, x, y, z) = all[k++];
    }
    return out;
  }

  /// Bytes exchanged per step (send side) — input to the network model.
  /// Tracks the storage element size: reduced precision halves/quarters it.
  std::size_t haloBytesPerStep() const {
    return halo_.bytesPerExchange(D::Q, sizeof(S));
  }

 private:
  bool zWrapLocal() const { return cfg_.periodic.z; }
  bool inPlace() const { return backend_->info().caps.inPlaceStreaming; }
  /// True when the single in-place buffer is in the rotated (post-even)
  /// layout and reads must go through EsotericPhase1View.
  bool rotatedPhase() const { return inPlace() && parity_ == 1; }

  /// One backend update of `range`.  No fallback: the backend was
  /// resolved by name at construction and capability-checked, so
  /// whatever it is runs — an unsupported combination already threw.
  void runKernel(Field& src, Field& dst, const Box3& range) {
    BackendStepArgs<D, S> args;
    args.src = &src;
    args.dst = &dst;
    args.mask = &mask_;
    args.mats = &mats_;
    args.cfg = &cfg_.collision;
    args.range = range;
    args.periodic = Periodicity{false, false, zWrapLocal()};
    backend_->run(args, cfg_.hostThreads);
  }

  /// In-place (Esoteric-Pull) step.  Even phase: local z wrap, forward
  /// exchange (the gather pulls from the halo exactly like the fused
  /// kernel), one whole-interior in-place sweep, then the *reverse*
  /// exchange + local reverse z wrap fold the outward scatter back to
  /// its owners.  Odd phase: fully local — no communication at all,
  /// halving the exchange frequency relative to the two-lattice
  /// schedule.
  void stepInPlace() {
    Field& buf = f_[0];
    if (parity_ == 0) {
      {
        obs::TraceScope zScope("z_wrap");
        apply_periodic(buf, Periodicity{false, false, zWrapLocal()});
      }
      {
        obs::TraceScope haloScope("halo.exchange");
        halo_.exchange(comm_, buf);
      }
      {
        obs::TraceScope computeScope("compute.interior");
        backend_->runInPlaceEven(buf, mask_, mats_, cfg_.collision,
                                 grid_.interior(), cfg_.hostThreads);
      }
      {
        obs::TraceScope haloScope("halo.exchange");
        halo_.template exchangeReverse<D>(comm_, buf);
      }
      obs::TraceScope zScope("z_wrap");
      apply_periodic_reverse<D>(buf, Periodicity{false, false, zWrapLocal()});
    } else {
      obs::TraceScope computeScope("compute.interior");
      backend_->runInPlaceOdd(buf, mask_, mats_, cfg_.collision,
                              grid_.interior(), cfg_.hostThreads);
    }
  }

  void packLocal(std::vector<Real>& buf) const {
    std::size_t k = 0;
    if (rotatedPhase()) {
      const EsotericPhase1View<D, S> view(f_[0]);
      for (int q = 0; q < D::Q; ++q)
        for (int z = 0; z < grid_.nz; ++z)
          for (int y = 0; y < grid_.ny; ++y)
            for (int x = 0; x < grid_.nx; ++x) buf[k++] = view(q, x, y, z);
      return;
    }
    const Field& field = f();
    for (int q = 0; q < D::Q; ++q)
      for (int z = 0; z < grid_.nz; ++z)
        for (int y = 0; y < grid_.ny; ++y)
          for (int x = 0; x < grid_.nx; ++x) buf[k++] = field(q, x, y, z);
  }

  Comm& comm_;
  Config cfg_;
  Decomposition decomp_;
  Box3 owned_;
  Grid grid_;
  HaloExchange halo_;
  Field f_[2];
  MaskField mask_;
  MaterialTable mats_;
  std::unique_ptr<KernelBackend<D, S>> backend_;
  int parity_ = 0;
  std::uint64_t steps_ = 0;
  bool maskFinal_ = false;
};

}  // namespace swlb::runtime
