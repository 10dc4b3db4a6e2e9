// Macroscopic moments (density, velocity) of a population field.
#pragma once

#include "core/boundary.hpp"
#include "core/collision.hpp"
#include "core/field.hpp"

namespace swlb {

/// Density and velocity of one cell.  When `cfg` carries a body force the
/// velocity includes the Guo half-force shift, matching what the collision
/// kernel used.
///
/// `F` is any field-like type with `Real operator()(i, x, y, z)` and
/// `grid()`: a PopulationFieldT of any storage precision, the AoS layout,
/// or a decoding view such as EsotericPhase1View.
template <class D, class F>
inline void cell_macroscopic(const F& f, int x, int y, int z,
                             const CollisionConfig& cfg, Real& rho, Vec3& u) {
  Real fi[D::Q];
  for (int i = 0; i < D::Q; ++i) fi[i] = f(i, x, y, z);
  Vec3 mom;
  moments<D>(fi, rho, mom);
  const Real inv = Real(1) / rho;
  u = {mom.x * inv, mom.y * inv, mom.z * inv};
  if (cfg.hasForce()) guo_velocity_shift(u, cfg.bodyForce, inv);
}

/// Fill density and velocity fields over the interior.  Cells whose
/// populations hold the state (is_pullable: fluid, porous, inlets, Zou-He,
/// outflow) report their moments; every other cell gets rho = material
/// rho and u = material u (walls: zero).
template <class D, class F>
void compute_macroscopic(const F& f, const MaskField& mask,
                         const MaterialTable& mats, const CollisionConfig& cfg,
                         ScalarField& rho, VectorField& u) {
  const Grid& g = f.grid();
  for (int z = 0; z < g.nz; ++z)
    for (int y = 0; y < g.ny; ++y)
      for (int x = 0; x < g.nx; ++x) {
        const Material& m = mats[mask(x, y, z)];
        if (is_pullable(m.cls)) {
          Real r;
          Vec3 v;
          cell_macroscopic<D>(f, x, y, z, cfg, r, v);
          rho(x, y, z) = r;
          u.set(x, y, z, v);
        } else {
          rho(x, y, z) = m.rho;
          u.set(x, y, z, m.u);
        }
      }
}

/// Total mass over the interior fluid cells (conservation checks).
template <class D, class F>
Real total_mass(const F& f, const MaskField& mask,
                const MaterialTable& mats) {
  const Grid& g = f.grid();
  Real sum = 0;
  for (int z = 0; z < g.nz; ++z)
    for (int y = 0; y < g.ny; ++y)
      for (int x = 0; x < g.nx; ++x) {
        if (mats[mask(x, y, z)].cls != CellClass::Fluid) continue;
        for (int i = 0; i < D::Q; ++i) sum += f(i, x, y, z);
      }
  return sum;
}

/// Total momentum over the interior fluid cells.
template <class D, class F>
Vec3 total_momentum(const F& f, const MaskField& mask,
                    const MaterialTable& mats) {
  const Grid& g = f.grid();
  Vec3 sum{0, 0, 0};
  for (int z = 0; z < g.nz; ++z)
    for (int y = 0; y < g.ny; ++y)
      for (int x = 0; x < g.nx; ++x) {
        if (mats[mask(x, y, z)].cls != CellClass::Fluid) continue;
        for (int i = 0; i < D::Q; ++i) {
          const Real fi = f(i, x, y, z);
          sum.x += fi * D::c[i][0];
          sum.y += fi * D::c[i][1];
          sum.z += fi * D::c[i][2];
        }
      }
  return sum;
}

}  // namespace swlb
