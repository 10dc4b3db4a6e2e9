// In-place single-buffer streaming (Esoteric-Pull, DESIGN.md §11).
//
// The A-B two-lattice pattern doubles population memory purely to make
// streaming race-free.  The Esoteric-Pull scheme (Lehmann 2022, the scheme
// FluidX3D ships) gets the same race-freedom from an index rotation on a
// *single* buffer, halving population memory and therefore doubling the
// largest mesh per rank:
//
//   * Even step (phase 0 -> 1).  The buffer is in natural order
//     (slot [i, x] holds f_i(x)).  Each cell gathers exactly like the
//     fused pull kernel, collides, and scatters f_i* to [opp(i), x + c_i]
//     — the neighbour slot the neighbour would have pulled from anyway.
//   * Odd step (phase 1 -> 0).  f_i arriving at x now sits in the cell's
//     own slot [opp(i), x]; the gather is fully local, and post-collision
//     values are stored back in natural order [i, x].
//
// The key invariant making this order-independent (and thus trivially
// multithreadable over z-slabs): every address a cell reads is written by
// that same cell and no other, in both phases.  Writes that would leave
// the domain land in wall/halo cells as "parks": a population pushed into
// a bounce-back wall during the even step is read back — reversed — by the
// same cell during the odd step ([i, x - c_i]), which *is* half-way
// bounce-back; the moving-wall momentum term is added by the reader.
// Solid/MovingWall storage therefore becomes a scratch mailbox, and
// periodic faces need a *reverse* wrap after the even step to fold the
// halo deposits back onto the opposite interior edge.
//
// Supported cell classes: Fluid, Solid, MovingWall, ZouHeVelocity,
// ZouHePressure, Porous, VelocityInlet.  Outflow (copy from an interior
// neighbour) is ordering-dependent in-place and is rejected by the solver.
//
// Included at the bottom of core/kernels.hpp; do not include directly.
#pragma once

#include "core/kernels.hpp"

namespace swlb {

namespace detail {

/// Reduced-precision bit-identity with the two-lattice kernels requires
/// the DDF shift of a slot to equal the shift of its opposite (a value
/// encoded into slot opp(i) must decode as if stored in slot i).  True for
/// every lattice here: opposite pairs (2k-1, 2k) share their weight.
template <class D>
constexpr bool pair_symmetric_weights() {
  for (int i = 0; i < D::Q; ++i)
    if (D::w[i] != D::w[D::opp(i)]) return false;
  return true;
}

}  // namespace detail

/// Even (phase 0 -> 1) in-place update: pull-gather from the natural
/// layout, collide, scatter post-collision values downstream into the
/// opposite slots.  Any sub-box order is valid (read set == write set per
/// cell), so the host-thread executor splits z-slabs exactly like the
/// fused kernel: writes may cross slab edges, but no two cells share an
/// address.
template <class D, class S>
void stream_collide_esoteric_even(PopulationFieldT<S>& f, const MaskField& mask,
                                  const MaterialTable& mats,
                                  const CollisionConfig& cfg,
                                  const Box3& range) {
  static_assert(detail::pair_symmetric_weights<D>(),
                "esoteric scheme stores populations in opposite slots and "
                "needs w[i] == w[opp(i)] for shift-exact encoding");
  using Traits = StorageTraits<S>;
  const Grid& g = f.grid();
  SWLB_ASSERT(mask.grid() == g);

  std::ptrdiff_t off[D::Q];
  std::size_t slab[D::Q];
  Real sh[D::Q];
  for (int i = 0; i < D::Q; ++i) {
    off[i] = static_cast<std::ptrdiff_t>(
        (static_cast<long long>(D::c[i][2]) * g.sy() + D::c[i][1]) * g.sx() +
        D::c[i][0]);
    slab[i] = f.slab(i);
    sh[i] = f.shift(i);
  }

  S* data = f.data();
  const std::uint8_t* mdata = mask.data();

  auto ld = [&](int i, std::size_t p) -> Real {
    if constexpr (PopulationFieldT<S>::kIdentityStorage)
      return data[slab[i] + p];
    else
      return Traits::decode(data[slab[i] + p], sh[i]);
  };
  auto st = [&](int i, std::size_t p, Real v) {
    if constexpr (PopulationFieldT<S>::kIdentityStorage)
      data[slab[i] + p] = v;
    else
      data[slab[i] + p] = Traits::encode(v, sh[i]);
  };

  auto scalarCell = [&](std::size_t p) {
    const std::uint8_t id = mdata[p];
    const Material* zh = nullptr;
    if (id != MaterialTable::kFluid) {
      const Material& m = mats[id];
      if (!is_streaming(m.cls)) {
        if (m.cls == CellClass::VelocityInlet) {
          Real feq[D::Q];
          equilibria<D>(m.rho, m.u, feq);
          for (int i = 0; i < D::Q; ++i)
            st(D::opp(i), p + off[i], feq[i]);
        }
        // Solid / MovingWall slots are parks (scratch); Outflow is
        // rejected by the solver before the first step.
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
      collide_cell<D>(fin, cfg, rho, u);
      porous_blend<D>(fin, fpre, zh->solidity);
      for (int i = 0; i < D::Q; ++i) st(D::opp(i), p + off[i], fin[i]);
      return;
    }
    if (zh) zouhe_fix<D>(fin, *zh);
    Real rho;
    Vec3 u;
    collide_cell<D>(fin, cfg, rho, u);
    for (int i = 0; i < D::Q; ++i) st(D::opp(i), p + off[i], fin[i]);
  };

  auto isBulk = [&](std::size_t p) -> bool {
    if (mdata[p] != MaterialTable::kFluid) return false;
    for (int i = 1; i < D::Q; ++i)
      if (mdata[p - off[i]] != MaterialTable::kFluid) return false;
    return true;
  };

  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y) {
      const std::size_t rowBase = g.idx(range.lo.x, y, z);
      int x = range.lo.x;
      while (x < range.hi.x) {
        std::size_t p = rowBase + static_cast<std::size_t>(x - range.lo.x);
        int xs = x;
        while (xs < range.hi.x && !isBulk(p)) {
          scalarCell(p);
          ++xs;
          ++p;
        }
        int xe = xs;
        while (xe < range.hi.x && isBulk(p)) {
          ++xe;
          ++p;
        }
        const int len = xe - xs;
        if (len > 0) {
          const std::size_t p0 =
              rowBase + static_cast<std::size_t>(xs - range.lo.x);
          // Each lane reads and writes only its own cell's address set, so
          // cross-lane independence holds and omp simd is legal.
          SWLB_PRAGMA_SIMD
          for (int lane = 0; lane < len; ++lane) {
            const std::size_t pw = p0 + static_cast<std::size_t>(lane);
            Real fin[D::Q];
            for (int i = 0; i < D::Q; ++i) fin[i] = ld(i, pw - off[i]);
            Real rho;
            Vec3 u;
            collide_cell<D>(fin, cfg, rho, u);
            for (int i = 0; i < D::Q; ++i)
              st(D::opp(i), pw + off[i], fin[i]);
          }
        }
        x = xe;
      }
    }
}

/// Odd (phase 1 -> 0) in-place update: gather locally from the rotated
/// layout (own opposite slots; wall parks at [i, x - c_i]), collide, store
/// back in natural order.  All writes are cell-local.
template <class D, class S>
void stream_collide_esoteric_odd(PopulationFieldT<S>& f, const MaskField& mask,
                                 const MaterialTable& mats,
                                 const CollisionConfig& cfg,
                                 const Box3& range) {
  static_assert(detail::pair_symmetric_weights<D>(),
                "esoteric scheme stores populations in opposite slots and "
                "needs w[i] == w[opp(i)] for shift-exact encoding");
  using Traits = StorageTraits<S>;
  const Grid& g = f.grid();
  SWLB_ASSERT(mask.grid() == g);

  std::ptrdiff_t off[D::Q];
  std::size_t slab[D::Q];
  Real sh[D::Q];
  for (int i = 0; i < D::Q; ++i) {
    off[i] = static_cast<std::ptrdiff_t>(
        (static_cast<long long>(D::c[i][2]) * g.sy() + D::c[i][1]) * g.sx() +
        D::c[i][0]);
    slab[i] = f.slab(i);
    sh[i] = f.shift(i);
  }

  S* data = f.data();
  const std::uint8_t* mdata = mask.data();

  auto ld = [&](int i, std::size_t p) -> Real {
    if constexpr (PopulationFieldT<S>::kIdentityStorage)
      return data[slab[i] + p];
    else
      return Traits::decode(data[slab[i] + p], sh[i]);
  };
  auto st = [&](int i, std::size_t p, Real v) {
    if constexpr (PopulationFieldT<S>::kIdentityStorage)
      data[slab[i] + p] = v;
    else
      data[slab[i] + p] = Traits::encode(v, sh[i]);
  };

  auto scalarCell = [&](std::size_t p) {
    const std::uint8_t id = mdata[p];
    const Material* zh = nullptr;
    if (id != MaterialTable::kFluid) {
      const Material& m = mats[id];
      if (!is_streaming(m.cls)) {
        if (m.cls == CellClass::VelocityInlet) {
          Real feq[D::Q];
          equilibria<D>(m.rho, m.u, feq);
          for (int i = 0; i < D::Q; ++i) st(i, p, feq[i]);
        }
        return;
      }
      zh = &m;
    }
    Real fin[D::Q];
    for (int i = 0; i < D::Q; ++i) {
      const std::size_t pn = p - off[i];
      const std::uint8_t idn = mdata[pn];
      if (idn == MaterialTable::kFluid) {
        fin[i] = ld(D::opp(i), p);
        continue;
      }
      const Material& m = mats[idn];
      if (is_pullable(m.cls)) {
        fin[i] = ld(D::opp(i), p);
      } else if (m.cls == CellClass::Solid) {
        fin[i] = ld(i, pn);  // park: our own even-step deposit, reversed
      } else {  // MovingWall
        const Real cu =
            D::c[i][0] * m.u.x + D::c[i][1] * m.u.y + D::c[i][2] * m.u.z;
        fin[i] = ld(i, pn) + Real(6) * D::w[i] * m.rho * cu;
      }
    }
    if (zh && zh->cls == CellClass::Porous) {
      Real fpre[D::Q];
      for (int i = 0; i < D::Q; ++i) fpre[i] = fin[i];
      Real rho;
      Vec3 u;
      collide_cell<D>(fin, cfg, rho, u);
      porous_blend<D>(fin, fpre, zh->solidity);
      for (int i = 0; i < D::Q; ++i) st(i, p, fin[i]);
      return;
    }
    if (zh) zouhe_fix<D>(fin, *zh);
    Real rho;
    Vec3 u;
    collide_cell<D>(fin, cfg, rho, u);
    for (int i = 0; i < D::Q; ++i) st(i, p, fin[i]);
  };

  auto isBulk = [&](std::size_t p) -> bool {
    if (mdata[p] != MaterialTable::kFluid) return false;
    for (int i = 1; i < D::Q; ++i)
      if (mdata[p - off[i]] != MaterialTable::kFluid) return false;
    return true;
  };

  for (int z = range.lo.z; z < range.hi.z; ++z)
    for (int y = range.lo.y; y < range.hi.y; ++y) {
      const std::size_t rowBase = g.idx(range.lo.x, y, z);
      int x = range.lo.x;
      while (x < range.hi.x) {
        std::size_t p = rowBase + static_cast<std::size_t>(x - range.lo.x);
        int xs = x;
        while (xs < range.hi.x && !isBulk(p)) {
          scalarCell(p);
          ++xs;
          ++p;
        }
        int xe = xs;
        while (xe < range.hi.x && isBulk(p)) {
          ++xe;
          ++p;
        }
        const int len = xe - xs;
        if (len > 0) {
          const std::size_t p0 =
              rowBase + static_cast<std::size_t>(xs - range.lo.x);
          // Fully local: loads from the cell's own opposite slots, stores
          // to its natural slots — contiguous in x for every slab.
          SWLB_PRAGMA_SIMD
          for (int lane = 0; lane < len; ++lane) {
            const std::size_t pw = p0 + static_cast<std::size_t>(lane);
            Real fin[D::Q];
            for (int i = 0; i < D::Q; ++i) fin[i] = ld(D::opp(i), pw);
            Real rho;
            Vec3 u;
            collide_cell<D>(fin, cfg, rho, u);
            for (int i = 0; i < D::Q; ++i) st(i, pw, fin[i]);
          }
        }
        x = xe;
      }
    }
}

/// Reverse periodic wrap, run *after* the even step: boundary cells have
/// scattered populations into the innermost halo layer; fold each deposit
/// back onto the opposite interior edge.  Per slot j only the halo plane
/// the even step can deposit into (the face c_j points away from) carries
/// data; the interior-edge slots being overwritten are stale (their
/// would-be writer lies outside the domain), and the wall parks that
/// bounce-back reads during the odd step live in *other* slots of the
/// halo, so the copy never destroys live data.  Axes wrap in x, y, z
/// order so edge/corner deposits compose like the forward wrap.
template <class D, class S>
void apply_periodic_reverse(PopulationFieldT<S>& f, const Periodicity& per) {
  const Grid& g = f.grid();
  SWLB_ASSERT(g.halo >= 1);
  for (int j = 0; j < D::Q; ++j) {
    if (per.x && D::c[j][0] != 0) {
      const int from = D::c[j][0] > 0 ? -1 : g.nx;
      const int to = D::c[j][0] > 0 ? g.nx - 1 : 0;
      for (int z = -g.halo; z < g.nz + g.halo; ++z)
        for (int y = -g.halo; y < g.ny + g.halo; ++y)
          f.raw(j, to, y, z) = f.raw(j, from, y, z);
    }
    if (per.y && D::c[j][1] != 0) {
      const int from = D::c[j][1] > 0 ? -1 : g.ny;
      const int to = D::c[j][1] > 0 ? g.ny - 1 : 0;
      for (int z = -g.halo; z < g.nz + g.halo; ++z)
        for (int x = -g.halo; x < g.nx + g.halo; ++x)
          f.raw(j, x, to, z) = f.raw(j, x, from, z);
    }
    if (per.z && D::c[j][2] != 0) {
      const int from = D::c[j][2] > 0 ? -1 : g.nz;
      const int to = D::c[j][2] > 0 ? g.nz - 1 : 0;
      for (int y = -g.halo; y < g.ny + g.halo; ++y)
        for (int x = -g.halo; x < g.nx + g.halo; ++x)
          f.raw(j, x, y, to) = f.raw(j, x, y, from);
    }
  }
}

/// Read-only canonical (natural-order) view of an esoteric field at odd
/// phase: after the even step, the post-collision f_i*(x) sits at
/// [opp(i), x + c_i] — in a neighbour cell, a wall park, or the halo (for
/// periodic faces the reverse wrap *copies*, so the halo original remains
/// valid).  Valid for every streaming-class and inlet cell; Solid /
/// MovingWall slots are scratch in this scheme.  Satisfies the field-like
/// concept of core/macroscopic.hpp.
template <class D, class S>
class EsotericPhase1View {
 public:
  explicit EsotericPhase1View(const PopulationFieldT<S>& f) : f_(&f) {}
  const Grid& grid() const { return f_->grid(); }
  int q() const { return f_->q(); }
  Real operator()(int i, int x, int y, int z) const {
    return (*f_)(D::opp(i), x + D::c[i][0], y + D::c[i][1], z + D::c[i][2]);
  }

 private:
  const PopulationFieldT<S>* f_;
};

}  // namespace swlb
