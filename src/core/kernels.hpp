// Stream/collide kernel variants.
//
// The production path of SunwayLB is the *pull* scheme fused into a single
// loop (paper §IV-A, citing Wellein et al.): each cell gathers the
// populations streaming into it from its neighbours, applies half-way
// bounce-back on links into solids, collides, and writes to the second
// (A-B pattern) field.  Baseline variants — two-step (separate stream and
// collide), push, and AoS layout — exist for the ablation benchmarks
// (Fig. 8 / Fig. 11 ladders) and for cross-validation tests.
#pragma once

#include <string>
#include <type_traits>
#include <utility>

#include "core/boundary.hpp"
#include "core/collision.hpp"
#include "core/equilibrium.hpp"
#include "core/field.hpp"
#include "core/lattice.hpp"

// Marks the vectorizable loops: the fused kernel's bulk chunk and the
// esoteric lane loops.  -fopenmp-simd (added by the top-level CMakeLists
// when supported) honors `#pragma omp simd` without the OpenMP runtime;
// without the pragma GCC's -O2 cost model leaves these loops scalar.
// Compilers lacking the flag would trip -Wunknown-pragmas under -Werror,
// so the pragma is gated.
#if defined(SWLB_OPENMP_SIMD)
#define SWLB_PRAGMA_SIMD _Pragma("omp simd")
#else
#define SWLB_PRAGMA_SIMD
#endif

namespace swlb {

/// Which axes wrap periodically (halo copied from the opposite face).
struct Periodicity {
  bool x = false, y = false, z = false;
};

/// Gather the Q populations streaming into cell (x, y, z), applying
/// bounce-back rules on links whose upstream cell is a wall.
template <class D, class FSrc>
inline void gather_incoming(const FSrc& src, const MaskField& mask,
                            const MaterialTable& mats, int x, int y, int z,
                            Real* fin) {
  for (int i = 0; i < D::Q; ++i) {
    const int xn = x - D::c[i][0];
    const int yn = y - D::c[i][1];
    const int zn = z - D::c[i][2];
    const std::uint8_t id = mask(xn, yn, zn);
    if (id == MaterialTable::kFluid) {
      fin[i] = src(i, xn, yn, zn);
      continue;
    }
    const Material& m = mats[id];
    switch (m.cls) {
      case CellClass::Fluid:
      case CellClass::VelocityInlet:
      case CellClass::Outflow:
      case CellClass::ZouHeVelocity:
      case CellClass::ZouHePressure:
      case CellClass::Porous:
        fin[i] = src(i, xn, yn, zn);
        break;
      case CellClass::Solid:
        fin[i] = src(D::opp(i), x, y, z);
        break;
      case CellClass::MovingWall: {
        const Real cu = D::c[i][0] * m.u.x + D::c[i][1] * m.u.y + D::c[i][2] * m.u.z;
        fin[i] = src(D::opp(i), x, y, z) + Real(6) * D::w[i] * m.rho * cu;
        break;
      }
    }
  }
}

/// Update one non-fluid cell (wall copy, inlet equilibrium, outflow copy).
template <class D, class FSrc, class FDst>
inline void update_boundary_cell(const FSrc& src, FDst& dst, const Material& m,
                                 int x, int y, int z) {
  switch (m.cls) {
    case CellClass::VelocityInlet: {
      Real feq[D::Q];
      equilibria<D>(m.rho, m.u, feq);
      for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = feq[i];
      break;
    }
    case CellClass::Outflow: {
      const int xi = x + m.normal.x, yi = y + m.normal.y, zi = z + m.normal.z;
      for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = src(i, xi, yi, zi);
      break;
    }
    default:  // Solid / MovingWall: keep populations defined for checkpoints
      for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = src(i, x, y, z);
      break;
  }
}

/// Zou-He (non-equilibrium bounce-back) reconstruction of the populations
/// streaming in from outside the domain, applied after the gather and
/// before the collision.  `m.normal` is the unit inward normal; unknowns
/// are the directions with c . n > 0.
///
/// Density (velocity BC) or normal velocity (pressure BC) follow from the
/// zeroth/first moments over a straight wall:
///   rho = (S_parallel + 2 S_outgoing) / (1 - u.n)
/// and the unknowns are reconstructed by bouncing back the
/// non-equilibrium part:  f_i = f_opp(i) + (feq_i - feq_opp(i)).
template <class D>
inline void zouhe_fix(Real* fin, const Material& m) {
  const Int3 n = m.normal;
  SWLB_ASSERT(n.x * n.x + n.y * n.y + n.z * n.z == 1);
  Real sPar = 0, sOut = 0;
  for (int i = 0; i < D::Q; ++i) {
    const int cn = D::c[i][0] * n.x + D::c[i][1] * n.y + D::c[i][2] * n.z;
    if (cn == 0)
      sPar += fin[i];
    else if (cn < 0)
      sOut += fin[i];
  }
  Real rho;
  Vec3 u;
  if (m.cls == CellClass::ZouHeVelocity) {
    u = m.u;
    const Real un = u.x * n.x + u.y * n.y + u.z * n.z;
    rho = (sPar + 2 * sOut) / (Real(1) - un);
  } else {  // ZouHePressure: prescribed rho, tangential velocity zero
    rho = m.rho;
    const Real un = Real(1) - (sPar + 2 * sOut) / rho;
    u = {un * n.x, un * n.y, un * n.z};
  }
  Real feq[D::Q];
  equilibria<D>(rho, u, feq);
  for (int i = 0; i < D::Q; ++i) {
    const int cn = D::c[i][0] * n.x + D::c[i][1] * n.y + D::c[i][2] * n.z;
    if (cn > 0) fin[i] = fin[D::opp(i)] + (feq[i] - feq[D::opp(i)]);
  }
}

/// Partial bounce-back of a porous cell (Walsh, Burwinkle & Saar 2009):
/// after collision, a solidity fraction of each population is replaced by
/// the bounce-back of the *incoming* (pre-collision) opposite population:
///   f_i <- (1 - sigma) f_i* + sigma f_opp^in.
/// Mass-conserving for any sigma; sigma acts as a linear momentum sink.
template <class D>
inline void porous_blend(Real* fpost, const Real* fin, Real sigma) {
  Real bounced[D::Q];
  for (int i = 0; i < D::Q; ++i) bounced[i] = fin[D::opp(i)];
  for (int i = 0; i < D::Q; ++i)
    fpost[i] = (Real(1) - sigma) * fpost[i] + sigma * bounced[i];
}

/// Generic fused pull stream + BGK collide over `range`.
/// Works for any field type exposing `Real operator()(q, x, y, z)`,
/// in particular both the SoA and the AoS layouts.
template <class D, class FSrc, class FDst>
void stream_collide_generic(const FSrc& src, FDst& dst, const MaskField& mask,
                            const MaterialTable& mats, const CollisionConfig& cfg,
                            const Box3& range) {
  Real fin[D::Q];
  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y)
      for (int x = range.lo.x; x < range.hi.x; ++x) {
        const std::uint8_t id = mask(x, y, z);
        const Material* zh = nullptr;
        if (id != MaterialTable::kFluid) {
          const Material& m = mats[id];
          if (!is_streaming(m.cls)) {
            update_boundary_cell<D>(src, dst, m, x, y, z);
            continue;
          }
          if (m.cls != CellClass::Fluid) zh = &m;
        }
        gather_incoming<D>(src, mask, mats, x, y, z, fin);
        if (zh) {
          if (zh->cls == CellClass::Porous) {
            Real fpre[D::Q];
            for (int i = 0; i < D::Q; ++i) fpre[i] = fin[i];
            Real rho;
            Vec3 u;
            collide_cell<D>(fin, cfg, rho, u);
            porous_blend<D>(fin, fpre, zh->solidity);
            for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = fin[i];
            continue;
          }
          zouhe_fix<D>(fin, *zh);
        }
        Real rho;
        Vec3 u;
        collide_cell<D>(fin, cfg, rho, u);
        for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = fin[i];
      }
}

/// Cells per bulk chunk of the fused kernel.  The chunk keeps Q + 5 arrays
/// of this many Reals on the stack (12 KB at D3Q19), well inside L1.
inline constexpr int kBulkChunk = 64;

namespace detail {

/// BGK, with Guo forcing when `Force`, over n <= kBulkChunk bulk cells,
/// run direction-outer so every inner loop is flat over the cells:
///   1. per direction: gather, accumulate rho and momentum;
///   2. per cell: velocity, Guo half-force shift, u^2;
///   3. per direction: equilibrium, relaxation, Guo source, store.
/// Cell c gathers direction i from in[i][c] and stores it to out[i][c];
/// shift[i] is the storage shift of direction i.  Each cell goes through
/// exactly the operations of bgk_collide<D, Force, false>, in the same
/// order (the moment sums still run over i = 0..Q-1; vectorizing across
/// cells never reassociates within one cell), so the result is
/// bit-identical to it.  scripts/check_vectorized.py checks that the
/// loops marked `vectorized:` vectorize.
template <class D, bool Force, class S>
inline void bgk_bulk_chunk(const CollisionConfig& cfg, int n,
                           const S* const* in, S* const* out,
                           const Real* shift) {
  using Field = PopulationFieldT<S>;
  Real f[D::Q][kBulkChunk];
  // ux/uy/uz hold the momentum until loop 2 turns it into velocity.
  Real rho[kBulkChunk], ux[kBulkChunk], uy[kBulkChunk], uz[kBulkChunk],
      u2[kBulkChunk];
  for (int c = 0; c < n; ++c) {
    rho[c] = 0;
    ux[c] = 0;
    uy[c] = 0;
    uz[c] = 0;
  }
  for (int i = 0; i < D::Q; ++i) {
    const S* src = in[i];
    const Real sh = shift[i];
    const Real cx = D::c[i][0], cy = D::c[i][1], cz = D::c[i][2];
    SWLB_PRAGMA_SIMD
    for (int c = 0; c < n; ++c) {  // vectorized: gather
      const Real v = Field::decode(src[c], sh);
      f[i][c] = v;
      rho[c] += v;
      ux[c] += v * cx;
      uy[c] += v * cy;
      uz[c] += v * cz;
    }
  }
  const Vec3 g = cfg.bodyForce;
  SWLB_PRAGMA_SIMD
  for (int c = 0; c < n; ++c) {  // vectorized: velocity
    const Real inv_rho = Real(1) / rho[c];
    Vec3 u{ux[c] * inv_rho, uy[c] * inv_rho, uz[c] * inv_rho};
    if constexpr (Force) guo_velocity_shift(u, g, inv_rho);
    ux[c] = u.x;
    uy[c] = u.y;
    uz[c] = u.z;
    u2[c] = Real(1.5) * u.norm2();
  }
  const Real omega = cfg.omega;
  const Real pref = Real(1) - Real(0.5) * omega;
  for (int i = 0; i < D::Q; ++i) {
    S* dst = out[i];
    const Real sh = shift[i];
    SWLB_PRAGMA_SIMD
    for (int c = 0; c < n; ++c) {  // vectorized: collide
      const Vec3 u{ux[c], uy[c], uz[c]};
      Real v = f[i][c] +
               omega * (equilibrium_term<D>(i, rho[c], u, u2[c]) - f[i][c]);
      if constexpr (Force) v += guo_source<D>(i, u, g, pref);
      dst[c] = Field::encode(v, sh);
    }
  }
}

/// OR of byte c of every stream in `p`, unrolled at compile time so the
/// caller's loop over c stays one flat loop.
template <int... I>
inline std::uint8_t or_bytes(const std::uint8_t* const* p, int c,
                             std::integer_sequence<int, I...>) {
  return static_cast<std::uint8_t>((p[I][c] | ...));
}

/// stream_collide_fused under the collision policy `op` (core/collision.hpp).
template <class D, class S, class Op>
void fused_sweep(const Op& op, const PopulationFieldT<S>& src,
                 PopulationFieldT<S>& dst, const MaskField& mask,
                 const MaterialTable& mats, const Box3& range) {
  using Field = PopulationFieldT<S>;
  const Grid& g = src.grid();
  SWLB_ASSERT(dst.grid() == g && mask.grid() == g);

  // Linear offset of neighbour (x - c_i) relative to the current cell.
  std::ptrdiff_t off[D::Q];
  std::size_t slab[D::Q];
  Real sh[D::Q];
  for (int i = 0; i < D::Q; ++i) {
    off[i] = static_cast<std::ptrdiff_t>(
        (static_cast<long long>(D::c[i][2]) * g.sy() + D::c[i][1]) * g.sx() +
        D::c[i][0]);
    slab[i] = src.slab(i);
    sh[i] = src.shift(i);
  }

  const S* sdata = src.data();
  S* ddata = dst.data();
  const std::uint8_t* mdata = mask.data();

  auto ld = [&](int i, std::size_t p) {
    return Field::decode(sdata[slab[i] + p], sh[i]);
  };
  auto st = [&](int i, std::size_t p, Real v) {
    ddata[slab[i] + p] = Field::encode(v, sh[i]);
  };

  // The scalar path: per-direction boundary rules, then the policy's
  // per-cell body.  Every cell outside a chunked bulk run takes it.
  auto scalarCell = [&](std::size_t p, int x, int y, int z) {
    const std::uint8_t id = mdata[p];
    const Material* zh = nullptr;
    if (id != MaterialTable::kFluid) {
      const Material& m = mats[id];
      if (!is_streaming(m.cls)) {
        update_boundary_cell<D>(src, dst, m, x, y, z);
        return;
      }
      zh = &m;
    }
    Real fin[D::Q];
    for (int i = 0; i < D::Q; ++i) {
      const std::size_t pn = p - off[i];
      if (mdata[pn] == MaterialTable::kFluid) {
        fin[i] = ld(i, pn);
      } else {
        const Material& m = mats[mdata[pn]];
        if (is_pullable(m.cls)) {
          fin[i] = ld(i, pn);
        } else if (m.cls == CellClass::Solid) {
          fin[i] = ld(D::opp(i), p);
        } else {  // MovingWall
          const Real cu =
              D::c[i][0] * m.u.x + D::c[i][1] * m.u.y + D::c[i][2] * m.u.z;
          fin[i] = ld(D::opp(i), p) + Real(6) * D::w[i] * m.rho * cu;
        }
      }
    }
    if (zh && zh->cls == CellClass::Porous) {
      Real fpre[D::Q];
      for (int i = 0; i < D::Q; ++i) fpre[i] = fin[i];
      Real rho;
      Vec3 u;
      op(fin, rho, u);
      porous_blend<D>(fin, fpre, zh->solidity);
      for (int i = 0; i < D::Q; ++i) st(i, p, fin[i]);
      return;
    }
    if (zh) zouhe_fix<D>(fin, *zh);
    Real rho;
    Vec3 u;
    op(fin, rho, u);
    for (int i = 0; i < D::Q; ++i) st(i, p, fin[i]);
  };

  // The chunk pays off only where its loops vectorize: under BGK and
  // BGK+Guo (Op::kChunked) on hardware floating-point storage.  f16's
  // software decode/encode stays scalar, so there the chunk would only add
  // a round trip through its stack buffers.
  if constexpr (!(Op::kChunked && std::is_floating_point_v<S>)) {
    for (int z = range.lo.z; z < range.hi.z; ++z)
      for (int y = range.lo.y; y < range.hi.y; ++y) {
        std::size_t p = g.idx(range.lo.x, y, z);
        for (int x = range.lo.x; x < range.hi.x; ++x, ++p)
          scalarCell(p, x, y, z);
      }
  } else {
    // Each x-row goes in windows of kBulkChunk cells.  edge[c] ORs the
    // cell's own and its Q-1 upstream mask bytes (off[0] == 0): zero
    // exactly when all are plain fluid (kFluid == 0), i.e. when the cell
    // belongs to a bulk run, whose gather needs no boundary rules.
    static_assert(MaterialTable::kFluid == 0);
    std::uint8_t edge[kBulkChunk];
    const std::uint8_t* up[D::Q];
    constexpr auto kUpstream = std::make_integer_sequence<int, D::Q - 1>{};
    const S* in[D::Q];
    S* out[D::Q];
    for (int z = range.lo.z; z < range.hi.z; ++z)
      for (int y = range.lo.y; y < range.hi.y; ++y) {
        const std::size_t row = g.idx(range.lo.x, y, z);
        for (int x0 = range.lo.x; x0 < range.hi.x; x0 += kBulkChunk) {
          const int n = std::min(kBulkChunk, range.hi.x - x0);
          const std::size_t p0 =
              row + static_cast<std::size_t>(x0 - range.lo.x);
          for (int i = 0; i < D::Q; ++i) up[i] = mdata + (p0 - off[i]);
          SWLB_PRAGMA_SIMD
          for (int c = 0; c < n; ++c) {  // vectorized: mask
            const std::uint8_t own = up[0][c];
            edge[c] = own | or_bytes(up + 1, c, kUpstream);
          }
          for (int c = 0; c < n;) {
            const std::size_t p = p0 + static_cast<std::size_t>(c);
            if (edge[c]) {
              scalarCell(p, x0 + c, y, z);
              ++c;
              continue;
            }
            int e = c + 1;
            while (e < n && !edge[e]) ++e;
            for (int i = 0; i < D::Q; ++i) {
              in[i] = sdata + slab[i] + (p - off[i]);
              out[i] = ddata + slab[i] + p;
            }
            bgk_bulk_chunk<D, Op::kForce>(op.cfg, e - c, in, out, sh);
            c = e;
          }
        }
      }
  }
}

}  // namespace detail

/// Optimized fused pull kernel for the SoA layout: raw pointers and
/// precomputed per-direction neighbour offsets.  This is the host analogue
/// of the paper's hand-tuned CPE kernel.
///
/// The collision operator is resolved once per sweep into a compile-time
/// policy.  Cells whose whole pull stencil is plain fluid form bulk runs;
/// under BGK and BGK+Guo at f64 or f32 storage those run direction-outer
/// in chunks of kBulkChunk cells (detail::bgk_bulk_chunk), so the inner
/// loops vectorize.  Every other cell takes the per-direction scalar path.
/// Both paths are bit-identical to collide_cell on the same populations.
///
/// Works for any storage precision: the gather decodes stored elements to
/// full-precision Real, the collision runs entirely in Real, and the
/// write-back encodes once per population.  Identity (double) storage
/// compiles to the historical raw load/store path.
template <class D, class S>
void stream_collide_fused(const PopulationFieldT<S>& src,
                          PopulationFieldT<S>& dst, const MaskField& mask,
                          const MaterialTable& mats, const CollisionConfig& cfg,
                          const Box3& range) {
  with_collision_policy<D>(cfg, [&](const auto& op) {
    detail::fused_sweep<D, S>(op, src, dst, mask, mats, range);
  });
}

/// Pull streaming only (no collision): dst receives the incoming
/// populations.  Combined with collide_inplace this reproduces the fused
/// kernel bit-for-bit; the pair exists to measure the cost of *not*
/// fusing (paper §IV-C3 reports ~30 % gain from fusion).
template <class D, class S>
void stream_only(const PopulationFieldT<S>& src, PopulationFieldT<S>& dst,
                 const MaskField& mask, const MaterialTable& mats,
                 const Box3& range) {
  Real fin[D::Q];
  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y)
      for (int x = range.lo.x; x < range.hi.x; ++x) {
        const std::uint8_t id = mask(x, y, z);
        const Material* zh = nullptr;
        if (id != MaterialTable::kFluid) {
          const Material& m = mats[id];
          if (!is_streaming(m.cls)) {
            update_boundary_cell<D>(src, dst, m, x, y, z);
            continue;
          }
          if (m.cls != CellClass::Fluid) zh = &m;
        }
        gather_incoming<D>(src, mask, mats, x, y, z, fin);
        if (zh && zh->cls != CellClass::Porous) zouhe_fix<D>(fin, *zh);
        for (int i = 0; i < D::Q; ++i) dst(i, x, y, z) = fin[i];
      }
}

/// In-place BGK collision over `range` (second half of the two-step scheme).
template <class D, class S>
void collide_inplace(PopulationFieldT<S>& f, const MaskField& mask,
                     const MaterialTable& mats, const CollisionConfig& cfg,
                     const Box3& range) {
  Real fc[D::Q];
  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y)
      for (int x = range.lo.x; x < range.hi.x; ++x) {
        const std::uint8_t id = mask(x, y, z);
        if (id != MaterialTable::kFluid && !is_streaming(mats[id].cls)) continue;
        for (int i = 0; i < D::Q; ++i) fc[i] = f(i, x, y, z);
        Real rho;
        Vec3 u;
        collide_cell<D>(fc, cfg, rho, u);
        if (id != MaterialTable::kFluid && mats[id].cls == CellClass::Porous) {
          Real fpre[D::Q];
          for (int i = 0; i < D::Q; ++i) fpre[i] = f(i, x, y, z);
          porous_blend<D>(fc, fpre, mats[id].solidity);
        }
        for (int i = 0; i < D::Q; ++i) f(i, x, y, z) = fc[i];
      }
}

/// Fused collide + *push* streaming: post-collision populations are
/// scattered to downstream neighbours.  Periodic axes are wrapped in-index
/// (push writes would otherwise land in halo cells and be lost).  Supports
/// fluid/solid/moving-wall cells only (the engineering inlet/outlet
/// conditions run on the pull path); used for cross-validation and the
/// pull-vs-push ablation.
template <class D, class S>
void stream_collide_push(const PopulationFieldT<S>& src,
                         PopulationFieldT<S>& dst, const MaskField& mask,
                         const MaterialTable& mats, const CollisionConfig& cfg,
                         const Box3& range, const Periodicity& per = {}) {
  const Grid& g = src.grid();
  Real fc[D::Q];
  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y)
      for (int x = range.lo.x; x < range.hi.x; ++x) {
        const std::uint8_t id = mask(x, y, z);
        if (id != MaterialTable::kFluid && mats[id].cls != CellClass::Fluid) {
          update_boundary_cell<D>(src, dst, mats[id], x, y, z);
          continue;
        }
        for (int i = 0; i < D::Q; ++i) fc[i] = src(i, x, y, z);
        Real rho;
        Vec3 u;
        collide_cell<D>(fc, cfg, rho, u);
        for (int i = 0; i < D::Q; ++i) {
          int xn = x + D::c[i][0];
          int yn = y + D::c[i][1];
          int zn = z + D::c[i][2];
          if (per.x) xn = (xn + g.nx) % g.nx;
          if (per.y) yn = (yn + g.ny) % g.ny;
          if (per.z) zn = (zn + g.nz) % g.nz;
          const Material& m = mats[mask(xn, yn, zn)];
          switch (m.cls) {
            case CellClass::Fluid:
            case CellClass::VelocityInlet:
            case CellClass::Outflow:
            case CellClass::ZouHeVelocity:
            case CellClass::ZouHePressure:
            case CellClass::Porous:
              // Push supports plain deliveries only; Zou-He/porous cells
              // are documented as pull-path features.
              dst(i, xn, yn, zn) = fc[i];
              break;
            case CellClass::Solid:
              dst(D::opp(i), x, y, z) = fc[i];
              break;
            case CellClass::MovingWall: {
              const Real cu =
                  D::c[i][0] * m.u.x + D::c[i][1] * m.u.y + D::c[i][2] * m.u.z;
              dst(D::opp(i), x, y, z) = fc[i] - Real(6) * D::w[i] * m.rho * cu;
              break;
            }
          }
        }
      }
}

namespace detail {

/// Copy `count` halo layers from the opposite interior face, one axis at a
/// time.  Wrapping x, then y, then z lets edge and corner halo cells pick
/// up already-wrapped data, so diagonal pulls across periodic boundaries
/// are correct.
template <typename FieldLike>
void wrap_axis_x(FieldLike&& get, const Grid& g, int q) {
  for (int z = -g.halo; z < g.nz + g.halo; ++z)
    for (int y = -g.halo; y < g.ny + g.halo; ++y)
      for (int l = 0; l < g.halo; ++l) {
        get(q, -1 - l, y, z) = get(q, g.nx - 1 - l, y, z);
        get(q, g.nx + l, y, z) = get(q, l, y, z);
      }
}

template <typename FieldLike>
void wrap_axis_y(FieldLike&& get, const Grid& g, int q) {
  for (int z = -g.halo; z < g.nz + g.halo; ++z)
    for (int x = -g.halo; x < g.nx + g.halo; ++x)
      for (int l = 0; l < g.halo; ++l) {
        get(q, x, -1 - l, z) = get(q, x, g.ny - 1 - l, z);
        get(q, x, g.ny + l, z) = get(q, x, l, z);
      }
}

template <typename FieldLike>
void wrap_axis_z(FieldLike&& get, const Grid& g, int q) {
  for (int y = -g.halo; y < g.ny + g.halo; ++y)
    for (int x = -g.halo; x < g.nx + g.halo; ++x)
      for (int l = 0; l < g.halo; ++l) {
        get(q, x, y, -1 - l) = get(q, x, y, g.nz - 1 - l);
        get(q, x, y, g.nz + l) = get(q, x, y, l);
      }
}

}  // namespace detail

/// Copy interior faces into the opposite halo layers for periodic axes.
/// Axes are wrapped in x, y, z order so edge/corner halos compose correctly.
/// Population wraps copy the raw storage element — exact for any precision.
template <class S>
void apply_periodic(PopulationFieldT<S>& f, const Periodicity& per) {
  const Grid& g = f.grid();
  auto get = [&f](int q, int x, int y, int z) -> S& {
    return f.raw(q, x, y, z);
  };
  for (int q = 0; q < f.q(); ++q) {
    if (per.x) detail::wrap_axis_x(get, g, q);
    if (per.y) detail::wrap_axis_y(get, g, q);
    if (per.z) detail::wrap_axis_z(get, g, q);
  }
}

void apply_periodic(MaskField& mask, const Periodicity& per);

/// Fill non-periodic halo mask cells with `id` (defaults keep walls).
void fill_halo_mask(MaskField& mask, const Periodicity& per, std::uint8_t id);

/// The ablation kernels above by name, for the conformance tests and
/// bench_kernels (they are plain functions, not backends).  ablation_step
/// runs one update on an A-B pair as Solver::step drives a backend: wrap
/// the periodic halo of `src`, update the whole interior into `dst`; the
/// caller swaps.  Any other name throws.
inline constexpr const char* kAblationKernels[] = {"generic", "twostep",
                                                   "push"};
template <class D, class S>
void ablation_step(const std::string& name, PopulationFieldT<S>& src,
                   PopulationFieldT<S>& dst, const MaskField& mask,
                   const MaterialTable& mats, const CollisionConfig& cfg,
                   const Periodicity& per) {
  apply_periodic(src, per);
  const Box3 all = src.grid().interior();
  if (name == "generic") {
    stream_collide_generic<D>(src, dst, mask, mats, cfg, all);
  } else if (name == "twostep") {
    stream_only<D>(src, dst, mask, mats, all);
    collide_inplace<D>(dst, mask, mats, cfg, all);
  } else if (name == "push") {
    stream_collide_push<D>(src, dst, mask, mats, cfg, all, per);
  } else {
    throw Error("no ablation kernel named '" + name + "'");
  }
}

}  // namespace swlb

// The single-buffer variant builds on the definitions above.
#include "core/kernels_esoteric.hpp"
