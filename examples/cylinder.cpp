// Flow past a circular cylinder — the paper's main validation case
// (§V-A1, Fig. 12 shows the Re=3900 DNS).  This scaled-down 2-D run at
// Re = 100 develops the classic Karman vortex street; we measure the
// drag coefficient and Strouhal number with the momentum-exchange method
// and write Q-criterion / vorticity fields like the paper's figures.
//
// Usage: cylinder [diameterCells] [steps]   (default D=20, 16000 steps)
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/observables.hpp"
#include "core/solver.hpp"
#include "io/csv.hpp"
#include "io/ppm.hpp"
#include "io/vtk.hpp"

using namespace swlb;

int main(int argc, char** argv) {
  const int d = argc > 1 ? std::atoi(argv[1]) : 20;     // cylinder diameter
  const int steps = argc > 2 ? std::atoi(argv[2]) : 16000;
  const int nx = 22 * d, ny = 9 * d;
  const Real uIn = 0.08;
  const Real re = 100.0;
  const Real nu = uIn * d / re;

  CollisionConfig collision;
  collision.omega = omega_from_tau(tau_from_viscosity(nu));
  std::cout << "Cylinder, Re = " << re << ", D = " << d << " cells, domain "
            << nx << "x" << ny << ", tau = " << 1.0 / collision.omega << "\n";

  Solver<D2Q9> solver(Grid(nx, ny, 1), collision, Periodicity{false, false, true});
  const auto inlet = solver.materials().addVelocityInlet({uIn, 0, 0});
  const auto outlet = solver.materials().addOutflow({-1, 0, 0});
  solver.paint({{0, 0, 0}, {1, ny, 1}}, inlet);
  solver.paint({{nx - 1, 0, 0}, {nx, ny, 1}}, outlet);
  // Dedicated material id for the cylinder so the momentum-exchange force
  // sums only over its surface (the domain walls are also bounce-back).
  const auto cyl = solver.materials().add(Material{CellClass::Solid, {0, 0, 0}, 1.0, {0, 0, 0}});

  // Cylinder slightly off-centre to trigger the vortex street sooner.
  const Real cx = 5.0 * d, cy = ny / 2.0 + 0.5;
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x) {
      const Real dx = x + 0.5 - cx, dy = y + 0.5 - cy;
      if (dx * dx + dy * dy < d * d / 4.0) solver.mask()(x, y, 0) = cyl;
    }
  solver.finalizeMask();
  solver.initField([&](int, int y, int, Real& rho, Vec3& u) {
    rho = 1.0;
    u = {uIn * (1.0 + 1e-3 * std::sin(0.1 * y)), 0, 0};  // seed asymmetry
  });

  // Warm up, then record force history for Cd and Strouhal.
  const int warmup = steps / 2;
  solver.run(warmup);
  io::CsvWriter history("cylinder_forces.csv", {"step", "cd", "cl"});
  std::vector<Real> lift;
  Real cdSum = 0;
  const Real dyn = 0.5 * 1.0 * uIn * uIn * d;  // 0.5 rho U^2 D (per unit depth)
  for (int s = warmup; s < steps; ++s) {
    solver.step();
    const Vec3 f = solver.force(cyl);
    const Real cd = f.x / dyn, cl = f.y / dyn;
    history.row({static_cast<Real>(s), cd, cl});
    lift.push_back(cl);
    cdSum += cd;
  }
  const Real cdMean = cdSum / static_cast<Real>(lift.size());

  // Strouhal from zero crossings of the lift signal.
  int crossings = 0;
  int first = -1, last = -1;
  for (std::size_t i = 1; i < lift.size(); ++i) {
    if ((lift[i - 1] < 0) != (lift[i] < 0)) {
      ++crossings;
      if (first < 0) first = static_cast<int>(i);
      last = static_cast<int>(i);
    }
  }
  Real strouhal = 0;
  if (crossings >= 3) {
    const Real period = 2.0 * (last - first) / (crossings - 1);
    strouhal = d / (period * uIn);
  }

  std::cout << "mean Cd = " << cdMean << "  (literature ~1.3-1.5 at Re=100)\n"
            << "Strouhal = " << strouhal << "  (literature ~0.16-0.17)\n";

  // Fig. 12-style post-processing: Q-criterion and vorticity.
  ScalarField rho(solver.grid());
  VectorField u(solver.grid());
  solver.computeMacroscopic(rho, u);
  ScalarField q(solver.grid());
  VectorField curl(solver.grid());
  q_criterion(u, q);
  vorticity(u, curl);
  io::write_ppm_slice("cylinder_qcriterion.ppm", q, 0, -1e-5, 1e-5,
                      io::Colormap::BlueWhiteRed);
  io::write_ppm_slice("cylinder_vorticity.ppm", curl.z(), 0, -0.02, 0.02,
                      io::Colormap::BlueWhiteRed);
  io::VtkWriter vtk(solver.grid());
  vtk.addVector("velocity", u);
  vtk.addScalar("qcriterion", q);
  vtk.write("cylinder.vtk");
  std::cout << "Wrote cylinder_forces.csv, cylinder_qcriterion.ppm, "
               "cylinder_vorticity.ppm, cylinder.vtk\n";

  const bool ok = cdMean > 1.0 && cdMean < 2.0 && strouhal > 0.1 && strouhal < 0.25;
  return ok ? 0 : 1;
}
