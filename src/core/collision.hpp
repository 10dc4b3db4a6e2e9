// Per-cell collision operators: LBGK (paper Eq. 1), optional Guo body
// force and Smagorinsky LES eddy viscosity (used by the urban wind case),
// plus the TRT/MRT extensions of collision_ops.hpp.
//
// Every operator has one templated body.  with_collision_policy() reads a
// CollisionConfig once and hands the caller a compile-time policy wrapping
// the matching body, so a sweep can hoist the operator choice out of its
// cell loop; collide_cell() is the same dispatch for a single cell.
#pragma once

#include <cmath>
#include <type_traits>

#include "core/common.hpp"
#include "core/equilibrium.hpp"
#include "core/lattice.hpp"

namespace swlb {

/// Which collision operator the kernels apply.  The paper uses LBGK
/// (§IV-A); TRT and MRT are provided as the standard extensions (see
/// collision_ops.hpp).
enum class CollisionOp { BGK, TRT, MRT };

/// Collision configuration shared by all kernel variants.
struct CollisionConfig {
  Real omega = 1.0;            ///< 1/tau: sets the kinematic viscosity
  CollisionOp op = CollisionOp::BGK;
  Real magicLambda = 3.0 / 16.0;  ///< TRT magic parameter (3/16: exact walls)
  Vec3 bodyForce{0, 0, 0};     ///< constant body force (Guo forcing, BGK only)
  bool les = false;            ///< Smagorinsky subgrid model (BGK only)
  Real smagorinskyCs = 0.1;    ///< Smagorinsky constant C_s

  bool hasForce() const {
    return bodyForce.x != 0 || bodyForce.y != 0 || bodyForce.z != 0;
  }
};

/// Effective omega from the Smagorinsky closed form
///   tau_eff = (tau0 + sqrt(tau0^2 + 2*sqrt(2) (Cs*Delta)^2 |Pi| / (rho cs^4))) / 2
/// where Pi is the non-equilibrium second moment of the populations.
template <class D>
inline Real smagorinsky_omega(const Real* f, const Real* feq, Real rho,
                              Real omega0, Real cs) {
  Real pxx = 0, pyy = 0, pzz = 0, pxy = 0, pxz = 0, pyz = 0;
  for (int i = 0; i < D::Q; ++i) {
    const Real fneq = f[i] - feq[i];
    const Real cx = D::c[i][0], cy = D::c[i][1], cz = D::c[i][2];
    pxx += fneq * cx * cx;
    pyy += fneq * cy * cy;
    pzz += fneq * cz * cz;
    pxy += fneq * cx * cy;
    pxz += fneq * cx * cz;
    pyz += fneq * cy * cz;
  }
  const Real pi_norm = std::sqrt(pxx * pxx + pyy * pyy + pzz * pzz +
                                 2 * (pxy * pxy + pxz * pxz + pyz * pyz));
  const Real tau0 = Real(1) / omega0;
  // cs^4 = 1/9 for all DnQm lattices used here.
  const Real term = 2 * std::sqrt(Real(2)) * cs * cs * pi_norm * Real(9) / rho;
  const Real tau_eff = Real(0.5) * (tau0 + std::sqrt(tau0 * tau0 + term));
  return Real(1) / tau_eff;
}

/// Guo forcing, velocity half: shift u by half the force impulse.
inline void guo_velocity_shift(Vec3& u, const Vec3& g, Real inv_rho) {
  u.x += Real(0.5) * g.x * inv_rho;
  u.y += Real(0.5) * g.y * inv_rho;
  u.z += Real(0.5) * g.z * inv_rho;
}

/// Guo forcing, population half: the source term of direction i,
///   F_i = (1 - omega/2) w_i [3 (c-u) + 9 (c.u) c] . F,  pref = 1 - omega/2.
template <class D>
inline Real guo_source(int i, const Vec3& u, const Vec3& g, Real pref) {
  const Real cx = D::c[i][0], cy = D::c[i][1], cz = D::c[i][2];
  const Real cu = cx * u.x + cy * u.y + cz * u.z;
  const Real sx = Real(3) * (cx - u.x) + Real(9) * cu * cx;
  const Real sy = Real(3) * (cy - u.y) + Real(9) * cu * cy;
  const Real sz = Real(3) * (cz - u.z) + Real(9) * cu * cz;
  return pref * D::w[i] * (sx * g.x + sy * g.y + sz * g.z);
}

/// BGK collision of one cell, with Guo forcing and Smagorinsky LES chosen
/// at compile time: `f` holds the Q post-streaming (incoming) populations
/// and is overwritten with post-collision values.  Returns the macroscopic
/// (rho, u) used for the update.  The fused kernel's direction-outer bulk
/// chunk (core/kernels.hpp) performs the same operations in the same
/// order, so the two stay bit-identical.
template <class D, bool Force, bool Les>
inline void bgk_collide(Real* f, const CollisionConfig& cfg, Real& rho_out,
                        Vec3& u_out) {
  Real rho;
  Vec3 mom;
  moments<D>(f, rho, mom);
  const Real inv_rho = Real(1) / rho;
  Vec3 u{mom.x * inv_rho, mom.y * inv_rho, mom.z * inv_rho};
  if constexpr (Force) guo_velocity_shift(u, cfg.bodyForce, inv_rho);

  Real feq[D::Q];
  equilibria<D>(rho, u, feq);

  Real omega = cfg.omega;
  if constexpr (Les)
    omega = smagorinsky_omega<D>(f, feq, rho, cfg.omega, cfg.smagorinskyCs);

  for (int i = 0; i < D::Q; ++i) f[i] += omega * (feq[i] - f[i]);

  if constexpr (Force) {
    const Real pref = Real(1) - Real(0.5) * omega;
    for (int i = 0; i < D::Q; ++i)
      f[i] += guo_source<D>(i, u, cfg.bodyForce, pref);
  }

  rho_out = rho;
  u_out = u;
}

}  // namespace swlb

#include "core/collision_ops.hpp"

namespace swlb {

/// Compile-time collision policies: `op(f, rho, u)` collides one cell.
/// `kChunked` marks the operators whose bulk runs the fused kernel
/// processes direction-outer (core/kernels.hpp); `kForce` tells that chunk
/// whether to apply Guo forcing.  LES stays per cell: its sqrt sets errno,
/// which keeps the loop from vectorizing.
template <class D, bool Force, bool Les>
struct BgkPolicy {
  static constexpr bool kChunked = !Les;
  static constexpr bool kForce = Force;
  const CollisionConfig& cfg;
  void operator()(Real* f, Real& rho, Vec3& u) const {
    bgk_collide<D, Force, Les>(f, cfg, rho, u);
  }
};

template <class D>
struct TrtPolicy {
  static constexpr bool kChunked = false;
  const CollisionConfig& cfg;
  void operator()(Real* f, Real& rho, Vec3& u) const {
    trt_collide_cell<D>(f, cfg.omega, cfg.magicLambda, rho, u);
  }
};

/// MRT is defined for D3Q19; other lattices throw when a cell collides.
template <class D>
struct MrtPolicy {
  static constexpr bool kChunked = false;
  const CollisionConfig& cfg;
  void operator()(Real* f, Real& rho, Vec3& u) const {
    if constexpr (std::is_same_v<D, D3Q19>)
      MrtD3Q19::collide(f, MrtD3Q19::Rates::standard(cfg.omega), rho, u);
    else
      throw Error("MRT collision is implemented for D3Q19 only");
  }
};

/// Resolve `cfg` to its policy once and call fn(policy).  Guo forcing and
/// LES are supported on the BGK path only (the configurations the paper
/// runs).
template <class D, class Fn>
inline void with_collision_policy(const CollisionConfig& cfg, Fn&& fn) {
  switch (cfg.op) {
    case CollisionOp::BGK:
      if (cfg.les) {
        if (cfg.hasForce())
          fn(BgkPolicy<D, true, true>{cfg});
        else
          fn(BgkPolicy<D, false, true>{cfg});
      } else if (cfg.hasForce()) {
        fn(BgkPolicy<D, true, false>{cfg});
      } else {
        fn(BgkPolicy<D, false, false>{cfg});
      }
      return;
    case CollisionOp::TRT:
      SWLB_ASSERT(!cfg.les && !cfg.hasForce());
      fn(TrtPolicy<D>{cfg});
      return;
    case CollisionOp::MRT:
      SWLB_ASSERT(!cfg.les && !cfg.hasForce());
      fn(MrtPolicy<D>{cfg});
      return;
  }
}

/// Collide one cell with the operator `cfg` selects: the per-cell entry
/// point of every kernel that does not hoist the choice itself.
template <class D>
inline void collide_cell(Real* f, const CollisionConfig& cfg, Real& rho_out,
                         Vec3& u_out) {
  with_collision_policy<D>(cfg,
                           [&](const auto& op) { op(f, rho_out, u_out); });
}

}  // namespace swlb
