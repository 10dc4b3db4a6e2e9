// Running flow statistics for DNS/LES post-processing: time-averaged
// velocity and Reynolds stresses accumulated over steps (what the paper's
// turbulence cases report from, e.g. the Re=3900 cylinder wake).
//
// Uses Welford-style accumulation: numerically stable, single pass, no
// stored history.
#pragma once

#include <cstdint>

#include "core/field.hpp"

namespace swlb {

class FlowStatistics {
 public:
  explicit FlowStatistics(const Grid& grid)
      : mean_(grid), m2xx_(grid, 0), m2yy_(grid, 0), m2zz_(grid, 0),
        m2xy_(grid, 0), m2xz_(grid, 0), m2yz_(grid, 0), meanRho_(grid, 0) {}

  const Grid& grid() const { return mean_.grid(); }
  std::uint64_t samples() const { return n_; }

  /// Accumulate one snapshot of the macroscopic fields.
  void accumulate(const ScalarField& rho, const VectorField& u) {
    SWLB_ASSERT(rho.grid() == grid() && u.grid() == grid());
    ++n_;
    const Real invN = Real(1) / static_cast<Real>(n_);
    const Grid& g = grid();
    for (int z = 0; z < g.nz; ++z)
      for (int y = 0; y < g.ny; ++y)
        for (int x = 0; x < g.nx; ++x) {
          const Vec3 v = u.at(x, y, z);
          const Vec3 m = mean_.at(x, y, z);
          const Vec3 d{v.x - m.x, v.y - m.y, v.z - m.z};
          const Vec3 m1{m.x + d.x * invN, m.y + d.y * invN, m.z + d.z * invN};
          mean_.set(x, y, z, m1);
          // Co-moment updates: M2 += d * (v - new_mean).
          const Vec3 d2{v.x - m1.x, v.y - m1.y, v.z - m1.z};
          m2xx_(x, y, z) += d.x * d2.x;
          m2yy_(x, y, z) += d.y * d2.y;
          m2zz_(x, y, z) += d.z * d2.z;
          m2xy_(x, y, z) += d.x * d2.y;
          m2xz_(x, y, z) += d.x * d2.z;
          m2yz_(x, y, z) += d.y * d2.z;
          meanRho_(x, y, z) += (rho(x, y, z) - meanRho_(x, y, z)) * invN;
        }
  }

  /// Time-averaged velocity at a cell.
  Vec3 meanVelocity(int x, int y, int z) const { return mean_.at(x, y, z); }
  Real meanDensity(int x, int y, int z) const { return meanRho_(x, y, z); }

  /// Reynolds-stress component <u_a' u_b'> at a cell (a, b in {0,1,2}).
  Real reynoldsStress(int a, int b, int x, int y, int z) const {
    if (n_ < 2) return 0;
    const Real invN = Real(1) / static_cast<Real>(n_);
    const ScalarField* comp = nullptr;
    if (a > b) std::swap(a, b);
    if (a == 0 && b == 0) comp = &m2xx_;
    else if (a == 1 && b == 1) comp = &m2yy_;
    else if (a == 2 && b == 2) comp = &m2zz_;
    else if (a == 0 && b == 1) comp = &m2xy_;
    else if (a == 0 && b == 2) comp = &m2xz_;
    else if (a == 1 && b == 2) comp = &m2yz_;
    else throw Error("reynoldsStress: component out of range");
    return (*comp)(x, y, z) * invN;
  }

  /// Turbulent kinetic energy k = 0.5 (<u'u'> + <v'v'> + <w'w'>).
  Real turbulentKineticEnergy(int x, int y, int z) const {
    return Real(0.5) * (reynoldsStress(0, 0, x, y, z) +
                        reynoldsStress(1, 1, x, y, z) +
                        reynoldsStress(2, 2, x, y, z));
  }

  void reset() {
    n_ = 0;
    VectorField fresh(grid());
    mean_ = fresh;
    m2xx_.fill(0);
    m2yy_.fill(0);
    m2zz_.fill(0);
    m2xy_.fill(0);
    m2xz_.fill(0);
    m2yz_.fill(0);
    meanRho_.fill(0);
  }

 private:
  std::uint64_t n_ = 0;
  VectorField mean_;
  ScalarField m2xx_, m2yy_, m2zz_, m2xy_, m2xz_, m2yz_;
  ScalarField meanRho_;
};

}  // namespace swlb
