// Multi-rank LBM solver: 2-D xy domain decomposition with sequential or
// on-the-fly (overlapped) halo exchange — the structure of paper Figs. 6/9.
//
// In Sequential mode each step is: halo exchange, then update the whole
// subdomain.  In Overlap mode receives are posted and sends packed first,
// the *inner* cells (which need no remote data) are updated while messages
// are in flight, and the one-cell boundary shell is updated after the halo
// lands — hiding almost all communication cost behind computation.
//
// Every rank owns exactly one uniform block here, and runs it on a
// swlb::Solver (core/solver.hpp): the block owns the population buffers,
// mask, backend and parity; this class owns the decomposition and the
// halo schedule around the block's sweeps.  For workloads where
// the uniform volume split leaves ranks idle (solid-heavy masks), the
// patch-aware mode in runtime/patches.hpp (PatchSolver, DESIGN.md §13)
// splits the domain into many small patches per rank, balances them by
// fluid weight or measured step time, and stays bit-identical to this
// solver and the monolithic one.
#pragma once

#include <chrono>

#include "coll/coll.hpp"
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
    /// Overlap sweeps the inner box and the shell in separate calls, so
    /// construction rejects it for whole-block (!caps.subRange: swcpe)
    /// and in-place (esoteric) backends; run those under Sequential.
    HaloMode mode = HaloMode::Overlap;
    /// Process grid; {0,0,0} selects Decomposition::choose(comm.size()).
    Int3 procGrid{0, 0, 0};
    /// Stream/collide backend by registry name (core/backend.hpp).
    /// In-place backends (esoteric) free the second buffer and only
    /// communicate on even steps (halved exchange frequency).
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
        block_(Grid(owned_.hi.x - owned_.lo.x, owned_.hi.y - owned_.lo.y,
                    owned_.hi.z - owned_.lo.z),
               cfg.collision, Periodicity{false, false, cfg.periodic.z}),
        halo_(decomp_, comm.rank(), cfg.periodic, block_.grid()) {
    if (decomp_.rankCount() != comm.size())
      throw Error("DistributedSolver: process grid does not match world size");
    block_.setBackend(cfg_.backend);
    block_.setHostThreads(cfg_.hostThreads);
    const BackendCaps& caps = block_.backend().info().caps;
    if (cfg_.mode == HaloMode::Overlap &&
        (!caps.subRange || caps.inPlaceStreaming))
      throw Error("DistributedSolver: backend '" + cfg_.backend +
                  "' cannot split its sweep around the exchange (" +
                  (caps.subRange ? "capability 'inPlaceStreaming' is on"
                                 : "capability 'subRange' is off") +
                  "); the Overlap halo mode needs that, use Sequential");
  }

  Comm& comm() { return comm_; }
  const Decomposition& decomposition() const { return decomp_; }
  const Box3& ownedBox() const { return owned_; }
  const Grid& localGrid() const { return block_.grid(); }
  MaterialTable& materials() { return block_.materials(); }
  const MaskField& mask() const { return block_.mask(); }
  CollisionConfig& collision() { return block_.collision(); }
  /// This rank's block (local coordinates, one ghost layer).
  Solver<D, S>& block() { return block_; }
  const Solver<D, S>& block() const { return block_; }

  /// Paint material `id` over a box given in *global* coordinates.
  void paintGlobal(const Box3& globalBox, std::uint8_t id) {
    const Box3 local = intersect(globalBox, owned_);
    block_.paint({local.lo - owned_.lo, local.hi - owned_.lo}, id);
  }

  /// Finish mask setup: halo defaults to solid, periodic z wraps locally,
  /// x/y halo strips are exchanged with the neighbours.  Collective.
  /// The block validates its backend against the mask first;
  /// KernelBackend::init reads interior cells only, so the x/y ghost ring
  /// the exchange writes afterwards needs no second validation.
  void finalizeMask() {
    block_.finalizeMask();
    halo_.exchangeMask(comm_, block_.mask());
  }

  /// Equilibrium initialization from a *global*-coordinate field function.
  void initField(const std::function<void(int, int, int, Real&, Vec3&)>& fn) {
    if (!block_.maskFinalized()) finalizeMask();
    const Int3 lo = owned_.lo;
    block_.initField([&](int x, int y, int z, Real& rho, Vec3& u) {
      fn(x + lo.x, y + lo.y, z + lo.z, rho, u);
    });
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
  // In-place (Esoteric-Pull) backends run the Sequential schedule.  Even
  // phase: local z wrap, forward exchange (the gather pulls from the halo
  // exactly like the fused kernel), one whole-interior in-place sweep,
  // then the *reverse* exchange + local reverse z wrap fold the outward
  // scatter back to its owners.  Odd phase: fully local — no
  // communication at all, halving the exchange frequency relative to the
  // two-lattice schedule.
  void step() {
    obs::TraceScope stepScope("step");
    const Box3 interior = block_.grid().interior();
    if (block_.inPlace() && block_.parity() == 1) {
      {
        obs::TraceScope computeScope("compute.interior");
        block_.sweep(interior);
      }
      block_.advance();
      return;
    }
    {
      // z is never decomposed: wrap it locally before the x/y exchange so
      // the exchanged strips carry valid z-halo rows.
      obs::TraceScope zScope("z_wrap");
      block_.wrapHalo();
    }
    Field& src = block_.f();
    if (cfg_.mode == HaloMode::Sequential) {
      {
        obs::TraceScope haloScope("halo.exchange");
        halo_.exchange(comm_, src);
      }
      {
        obs::TraceScope computeScope("compute.interior");
        block_.sweep(interior);
      }
      if (block_.inPlace()) {
        {
          obs::TraceScope haloScope("halo.exchange");
          halo_.template exchangeReverse<D>(comm_, src);
        }
        obs::TraceScope zScope("z_wrap");
        block_.unwrapHalo();
      }
    } else {
      {
        obs::TraceScope postScope("halo.post");
        halo_.begin(comm_, src);
      }
      {
        obs::TraceScope computeScope("compute.interior");
        block_.sweep(halo_.innerBox());
      }
      {
        obs::TraceScope finishScope("halo.finish");
        halo_.finish(comm_, src);
      }
      obs::TraceScope frontierScope("compute.frontier");
      for (const Box3& b : halo_.boundaryShell()) block_.sweep(b);
    }
    block_.advance();
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

  std::uint64_t stepsDone() const { return block_.stepsDone(); }
  int parity() const { return block_.parity(); }
  /// Restore step counter and A-B parity (group checkpoint restart).
  /// In-place checkpoints must be cut at an even phase (natural layout).
  void restoreState(std::uint64_t steps, int parity) {
    block_.restoreState(steps, parity);
  }
  const Field& f() const { return block_.f(); }
  Field& f() { return block_.f(); }
  const KernelBackend<D, S>& backend() const { return block_.backend(); }
  const std::string& backendName() const { return block_.backendName(); }

  /// Bytes held in population storage (one lattice under Esoteric).
  std::size_t populationBytes() const { return block_.populationBytes(); }

  Real density(int x, int y, int z) const { return block_.density(x, y, z); }
  Vec3 velocity(int x, int y, int z) const { return block_.velocity(x, y, z); }

  /// Total fluid mass across all ranks (collective).
  Real globalMass() {
    return comm_.allreduce(localMass(), Comm::Op::Sum);
  }

  /// Fluid mass of this rank's block only (local; the resilient runner's
  /// divergence guard folds it into one well-ordered allreduce).
  Real localMass() const { return block_.totalMass(); }

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
    const Vec3 local = block_.force(id);
    double v[3] = {local.x, local.y, local.z};
    coll::Collectives cs(comm_);
    cs.allreduce(std::span<double>(v, 3), coll::Op::Sum);
    return {v[0], v[1], v[2]};
  }

  /// Local NaN/Inf guard over the block interior (Solver::
  /// populationsFinite).  Purely local so it can run inside a step's try
  /// block without risking a mismatched collective.
  bool populationsFinite() const { return block_.populationsFinite(); }

  /// Gather the full population field on `root` (interior cells only;
  /// other ranks receive an empty field).  Collective; test/IO helper.
  /// Values are decoded to Real before the gather, so the result is a
  /// plain double field regardless of the local storage precision.
  /// Variable-size gatherv (blocks differ under uneven decompositions)
  /// with all receives posted up front — a slow rank never serializes the
  /// others behind it.
  PopulationField gatherPopulations(int root) {
    const Grid& lg = block_.grid();
    std::vector<Real> local(static_cast<std::size_t>(owned_.volume()) * D::Q);
    std::size_t k = 0;
    for (int q = 0; q < D::Q; ++q)
      for (int z = 0; z < lg.nz; ++z)
        for (int y = 0; y < lg.ny; ++y)
          for (int x = 0; x < lg.nx; ++x)
            local[k++] = block_.population(q, x, y, z);
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
    std::size_t j = 0;
    for (int r = 0; r < comm_.size(); ++r) {
      const Box3 block = decomp_.blockOf(r);
      for (int q = 0; q < D::Q; ++q)
        for (int z = block.lo.z; z < block.hi.z; ++z)
          for (int y = block.lo.y; y < block.hi.y; ++y)
            for (int x = block.lo.x; x < block.hi.x; ++x)
              out(q, x, y, z) = all[j++];
    }
    return out;
  }

  /// Bytes exchanged per step (send side) — input to the network model.
  /// Tracks the storage element size: reduced precision halves/quarters it.
  std::size_t haloBytesPerStep() const {
    return halo_.bytesPerExchange(D::Q, sizeof(S));
  }

 private:
  Comm& comm_;
  Config cfg_;
  Decomposition decomp_;
  Box3 owned_;
  Solver<D, S> block_;
  HaloExchange halo_;
};

}  // namespace swlb::runtime
