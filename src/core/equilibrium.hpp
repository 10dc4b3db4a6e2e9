// Second-order Maxwell-Boltzmann equilibrium for the LBGK model (paper Eq. 1).
#pragma once

#include "core/common.hpp"
#include "core/lattice.hpp"

namespace swlb {

/// Equilibrium in direction i given the shared term u2term = 1.5 u^2:
///   f_i^eq = w_i rho (1 + 3 (c_i.u) + 4.5 (c_i.u)^2 - 1.5 u^2)
template <class D>
constexpr Real equilibrium_term(int i, Real rho, const Vec3& u, Real u2term) {
  const Real cu = D::c[i][0] * u.x + D::c[i][1] * u.y + D::c[i][2] * u.z;
  return D::w[i] * rho * (Real(1) + Real(3) * cu + Real(4.5) * cu * cu - u2term);
}

/// Equilibrium distribution in direction i.
template <class D>
constexpr Real equilibrium(int i, Real rho, const Vec3& u) {
  return equilibrium_term<D>(i, rho, u, Real(1.5) * u.norm2());
}

/// All Q equilibria at once (shared u^2 term).
template <class D>
constexpr void equilibria(Real rho, const Vec3& u, Real* out) {
  const Real u2term = Real(1.5) * u.norm2();
  for (int i = 0; i < D::Q; ++i)
    out[i] = equilibrium_term<D>(i, rho, u, u2term);
}

/// Density and momentum moments of a population vector.
template <class D>
constexpr void moments(const Real* f, Real& rho, Vec3& mom) {
  rho = 0;
  mom = {0, 0, 0};
  for (int i = 0; i < D::Q; ++i) {
    rho += f[i];
    mom.x += f[i] * D::c[i][0];
    mom.y += f[i] * D::c[i][1];
    mom.z += f[i] * D::c[i][2];
  }
}

}  // namespace swlb
