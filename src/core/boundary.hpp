// Boundary conditions via per-cell material ids.
//
// Each lattice cell carries a one-byte material id; a MaterialTable maps
// ids to behaviours.  This mirrors SunwayLB's pre-processing module, where
// the mesh generator flags cells from CAD/terrain input and the solver
// interprets the flags (paper §IV-B).
#pragma once

#include <cstdint>
#include <vector>

#include "core/common.hpp"
#include "core/field.hpp"

namespace swlb {

enum class CellClass : std::uint8_t {
  Fluid,           ///< regular bulk cell: stream + collide
  Solid,           ///< half-way bounce-back obstacle (no-slip)
  MovingWall,      ///< bounce-back with wall velocity (e.g. cavity lid)
  VelocityInlet,   ///< equilibrium inlet at prescribed (rho, u)
  Outflow,         ///< zeroth-order extrapolation outflow along `normal`
  ZouHeVelocity,   ///< non-equilibrium bounce-back inlet: exact velocity
  ZouHePressure,   ///< non-equilibrium bounce-back outlet: exact density
  Porous,          ///< partial bounce-back (Walsh-Burwinkle-Saar) medium
};

struct Material {
  CellClass cls = CellClass::Fluid;
  Vec3 u{0, 0, 0};   ///< wall / inlet velocity
  Real rho = 1.0;    ///< inlet / wall density
  Int3 normal{0, 0, 0};  ///< Outflow only: unit step from the cell into the interior
  Real solidity = 0;     ///< Porous only: bounce-back fraction in [0, 1]
};

/// Registry of materials.  Ids 0 (fluid) and 1 (solid wall) are built in;
/// halo cells of non-periodic axes default to id 1, which makes an
/// unconfigured domain a closed no-slip box.
class MaterialTable {
 public:
  static constexpr std::uint8_t kFluid = 0;
  static constexpr std::uint8_t kSolid = 1;

  MaterialTable() {
    mats_.push_back(Material{CellClass::Fluid, {0, 0, 0}, 1.0, {0, 0, 0}});
    mats_.push_back(Material{CellClass::Solid, {0, 0, 0}, 1.0, {0, 0, 0}});
  }

  std::uint8_t add(const Material& m) {
    if (mats_.size() >= 255) throw Error("MaterialTable: too many materials");
    mats_.push_back(m);
    return static_cast<std::uint8_t>(mats_.size() - 1);
  }

  std::uint8_t addMovingWall(const Vec3& u, Real rho = 1.0) {
    return add(Material{CellClass::MovingWall, u, rho, {0, 0, 0}});
  }
  std::uint8_t addVelocityInlet(const Vec3& u, Real rho = 1.0) {
    return add(Material{CellClass::VelocityInlet, u, rho, {0, 0, 0}});
  }
  std::uint8_t addOutflow(const Int3& inwardNormal) {
    return add(Material{CellClass::Outflow, {0, 0, 0}, 1.0, inwardNormal});
  }
  /// Zou-He (non-equilibrium bounce-back) velocity boundary on a straight
  /// wall whose inward normal is `inwardNormal`; the local density is
  /// reconstructed from the known populations each step.
  std::uint8_t addZouHeVelocity(const Vec3& u, const Int3& inwardNormal) {
    return add(Material{CellClass::ZouHeVelocity, u, 1.0, inwardNormal});
  }
  /// Zou-He pressure boundary: prescribes rho, reconstructs the normal
  /// velocity (tangential velocity assumed zero).
  std::uint8_t addZouHePressure(Real rho, const Int3& inwardNormal) {
    return add(Material{CellClass::ZouHePressure, {0, 0, 0}, rho, inwardNormal});
  }
  /// Porous medium cell: a fraction `solidity` of each population bounces
  /// back locally every step (partial bounce-back, a linear momentum
  /// sink); solidity 0 is plain fluid, solidity 1 a full diffuse blocker.
  std::uint8_t addPorous(Real solidity) {
    if (solidity < 0 || solidity > 1)
      throw Error("addPorous: solidity must be in [0, 1]");
    Material m;
    m.cls = CellClass::Porous;
    m.solidity = solidity;
    return add(m);
  }

  const Material& operator[](std::uint8_t id) const {
    SWLB_ASSERT(id < mats_.size());
    return mats_[id];
  }
  std::size_t size() const { return mats_.size(); }

 private:
  std::vector<Material> mats_;
};

/// True when neighbours may pull populations straight out of this cell.
constexpr bool is_pullable(CellClass c) {
  return c == CellClass::Fluid || c == CellClass::VelocityInlet ||
         c == CellClass::Outflow || c == CellClass::ZouHeVelocity ||
         c == CellClass::ZouHePressure || c == CellClass::Porous;
}

/// True when a cell streams + collides like a fluid cell (Zou-He cells do,
/// with their unknown populations reconstructed after the gather).
constexpr bool is_streaming(CellClass c) {
  return c == CellClass::Fluid || c == CellClass::ZouHeVelocity ||
         c == CellClass::ZouHePressure || c == CellClass::Porous;
}

}  // namespace swlb
