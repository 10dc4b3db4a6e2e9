// DARPA-Suboff-like submarine hull in a towing channel (paper §V-B,
// Fig. 18).  Demonstrates the full pre-processing pipeline: generate the
// hull as a body of revolution, round-trip it through STL (the CAD input
// path), voxelize it into the lattice, then run the flow and extract the
// drag force and the fields shown in the paper's figure.
//
// Usage: suboff [lengthCells] [steps]   (default L=96, 1200 steps)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/observables.hpp"
#include "core/solver.hpp"
#include "io/ppm.hpp"
#include "io/vtk.hpp"
#include "mesh/stl.hpp"
#include "mesh/voxelizer.hpp"

using namespace swlb;

int main(int argc, char** argv) {
  const int hullLen = argc > 1 ? std::atoi(argv[1]) : 96;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 1200;
  const Real maxRadius = hullLen / 11.6;  // Suboff L/D ~ 8.6 => R ~ L/17; padded
  const int nx = 2 * hullLen, ny = static_cast<int>(6 * maxRadius),
            nz = static_cast<int>(6 * maxRadius);
  const Real uIn = 0.05;

  // --- pre-processing: CAD-style geometry through the STL pipeline ------
  mesh::TriangleMesh hull = mesh::make_suboff(hullLen, maxRadius);
  mesh::write_stl_binary("suboff.stl", hull, "suboff-like hull");
  const mesh::TriangleMesh loaded = mesh::read_stl("suboff.stl");
  std::cout << "Hull: " << loaded.size() << " triangles, surface area "
            << loaded.surfaceArea() << " cells^2 (via suboff.stl)\n";

  CollisionConfig collision;
  collision.omega = 1.7;  // moderate Re; LES keeps it stable
  collision.les = true;
  collision.smagorinskyCs = 0.12;

  Solver<D3Q19> solver(Grid(nx, ny, nz), collision,
                       Periodicity{false, true, true});
  const auto inlet = solver.materials().addVelocityInlet({uIn, 0, 0});
  const auto outlet = solver.materials().addOutflow({-1, 0, 0});
  solver.paint({{0, 0, 0}, {1, ny, nz}}, inlet);
  solver.paint({{nx - 1, 0, 0}, {nx, ny, nz}}, outlet);
  // Dedicated material id for the hull: the force probe must not include
  // the tank walls (also bounce-back cells).
  const auto hullMat = solver.materials().add(
      Material{CellClass::Solid, {0, 0, 0}, 1.0, {0, 0, 0}});

  // Voxelize the hull at lattice resolution and drop it 1/4 into the tank.
  const mesh::VoxelGrid voxels = mesh::voxelize(
      loaded, {hullLen, static_cast<int>(2 * maxRadius) + 2,
               static_cast<int>(2 * maxRadius) + 2},
      {0, -maxRadius - 1, -maxRadius - 1}, 1.0);
  voxels.paint(solver.mask(), hullMat,
               {nx / 4, ny / 2 - static_cast<int>(maxRadius) - 1,
                nz / 2 - static_cast<int>(maxRadius) - 1});
  std::cout << "Voxelized hull: " << voxels.solidCount() << " solid cells\n";

  solver.finalizeMask();
  solver.initUniform(1.0, {uIn, 0, 0});

  const double mlups = solver.runMeasured(steps);
  const Vec3 force = solver.force(hullMat);
  const Real frontalArea = std::numbers::pi_v<Real> * maxRadius * maxRadius;
  const Real cd = force.x / (0.5 * uIn * uIn * frontalArea);

  std::cout << "Ran " << steps << " steps at " << mlups << " MLUPS\n"
            << "Drag force (lattice) = " << force.x << ", Cd(frontal) = " << cd
            << "\n";

  // Fig. 18-style output: velocity/pressure contours + Q-criterion.
  ScalarField rho(solver.grid());
  VectorField u(solver.grid());
  solver.computeMacroscopic(rho, u);
  ScalarField q(solver.grid());
  q_criterion(u, q);

  io::write_ppm_velocity_slice("suboff_velocity.ppm", u, nz / 2, 1.5 * uIn);
  io::write_ppm_slice("suboff_pressure.ppm", rho, nz / 2, 0, 0,
                      io::Colormap::BlueWhiteRed);
  io::write_ppm_slice("suboff_qcriterion.ppm", q, nz / 2, -1e-6, 1e-6,
                      io::Colormap::BlueWhiteRed);
  io::VtkWriter vtk(solver.grid());
  vtk.addScalar("density", rho);
  vtk.addVector("velocity", u);
  vtk.addScalar("qcriterion", q);
  vtk.write("suboff.vtk");
  std::cout << "Wrote suboff.stl, suboff_velocity.ppm, suboff_pressure.ppm, "
               "suboff_qcriterion.ppm, suboff.vtk\n";

  // Sanity: positive drag, wake slower than free stream.
  const Vec3 wake = solver.velocity(nx / 4 + hullLen + 4, ny / 2, nz / 2);
  std::cout << "Wake velocity = " << wake.x << " (free stream " << uIn << ")\n";
  return force.x > 0 && wake.x < uIn ? 0 : 1;
}
