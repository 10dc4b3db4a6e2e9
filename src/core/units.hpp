// Physical <-> lattice unit conversion (pre-processing module support).
//
// Follows the standard diffusive/acoustic scaling used by LBM frameworks:
// the user gives the physical problem (characteristic length L, velocity U,
// kinematic viscosity nu, density rho) plus the resolution (cells across L)
// and the lattice Mach proxy u_lat; the converter derives dx, dt and the
// relaxation time, and checks stability.
#pragma once

#include "core/common.hpp"
#include "core/lattice.hpp"

namespace swlb {

class UnitConverter {
 public:
  /// @param length     characteristic physical length [m]
  /// @param velocity   characteristic physical velocity [m/s]
  /// @param viscosity  kinematic viscosity [m^2/s]
  /// @param density    physical density [kg/m^3]
  /// @param resolution lattice cells across the characteristic length
  /// @param uLattice   characteristic velocity in lattice units (<= ~0.1)
  /// @param minTau     stability guard: reject setups with tau below this
  ///                   (tau -> 0.5 means vanishing lattice viscosity; BGK
  ///                   becomes unstable well before that without LES)
  UnitConverter(Real length, Real velocity, Real viscosity, Real density,
                int resolution, Real uLattice, Real minTau = Real(0.501))
      : L_(length),
        U_(velocity),
        nu_(viscosity),
        rho_(density),
        n_(resolution),
        uLat_(uLattice) {
    if (length <= 0 || velocity <= 0 || viscosity <= 0 || density <= 0 ||
        resolution <= 0 || uLattice <= 0) {
      throw Error("UnitConverter: all parameters must be positive");
    }
    dx_ = L_ / n_;
    dt_ = uLat_ / U_ * dx_;
    nuLat_ = nu_ * dt_ / (dx_ * dx_);
    tau_ = tau_from_viscosity(nuLat_);
    if (tau_ < minTau) {
      throw Error("UnitConverter: tau too close to 0.5 (unstable); raise resolution or u_lat");
    }
  }

  Real dx() const { return dx_; }
  Real dt() const { return dt_; }
  Real reynolds() const { return U_ * L_ / nu_; }
  Real latticeViscosity() const { return nuLat_; }
  Real tau() const { return tau_; }
  Real omega() const { return omega_from_tau(tau_); }
  Real latticeVelocity() const { return uLat_; }
  int resolution() const { return n_; }

  // -- physical -> lattice --
  Real toLatticeLength(Real m) const { return m / dx_; }
  Real toLatticeTime(Real s) const { return s / dt_; }
  Real toLatticeVelocity(Real ms) const { return ms * dt_ / dx_; }

  // -- lattice -> physical --
  Real toPhysLength(Real l) const { return l * dx_; }
  Real toPhysTime(Real t) const { return t * dt_; }
  Real toPhysVelocity(Real u) const { return u * dx_ / dt_; }
  /// Lattice pressure deviation p = cs^2 (rho - 1) -> physical pressure [Pa].
  Real toPhysPressure(Real rhoLat) const {
    return kCs2 * (rhoLat - Real(1)) * rho_ * (dx_ / dt_) * (dx_ / dt_);
  }

 private:
  Real L_, U_, nu_, rho_;
  int n_;
  Real uLat_;
  Real dx_ = 0, dt_ = 0, nuLat_ = 0, tau_ = 0;
};

}  // namespace swlb
