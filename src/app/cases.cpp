#include "app/cases.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <string>

#include "mesh/urban.hpp"
#include "mesh/voxelizer.hpp"

namespace swlb::app {

CollisionConfig collision_from_config(const Config& cfg) {
  CollisionConfig col;
  if (cfg.has("omega")) {
    col.omega = cfg.getReal("omega");
  } else if (cfg.has("tau")) {
    col.omega = omega_from_tau(cfg.getReal("tau"));
  } else if (cfg.has("viscosity")) {
    col.omega = omega_from_tau(tau_from_viscosity(cfg.getReal("viscosity")));
  } else {
    col.omega = 1.5;
  }
  if (col.omega <= 0 || col.omega >= 2) {
    throw Error("config: omega = " + std::to_string(col.omega) +
                " outside the stable (0, 2) range");
  }
  const std::string op = cfg.getString("operator", "bgk");
  if (op == "bgk")
    col.op = CollisionOp::BGK;
  else if (op == "trt")
    col.op = CollisionOp::TRT;
  else if (op == "mrt")
    col.op = CollisionOp::MRT;
  else
    throw Error("config: unknown operator '" + op + "' (bgk|trt|mrt)");
  col.les = cfg.getBool("les", false);
  col.smagorinskyCs = cfg.getReal("smagorinsky_cs", 0.14);
  if (col.les && col.op != CollisionOp::BGK)
    throw Error("config: LES requires the BGK operator");
  return col;
}

namespace {

Int3 sizeFrom(const Config& cfg, int dx, int dy, int dz) {
  // An extent outside [1, INT_MAX] is a named error, not an empty grid.
  auto extent = [&](const char* key, int fallback) {
    const long n = cfg.getInt(key, fallback);
    if (n < 1 || n > std::numeric_limits<int>::max())
      throw Error(std::string("config: ") + key + " = " + std::to_string(n) +
                  " is not a cell count in [1, INT_MAX]");
    return static_cast<int>(n);
  };
  return {extent("nx", dx), extent("ny", dy), extent("nz", dz)};
}

Case buildCavity(const Config& cfg) {
  const Int3 n = sizeFrom(cfg, 48, 48, 48);
  Case c;
  c.name = "cavity";
  c.uRef = cfg.getReal("lid_velocity", 0.05);
  c.solver = std::make_unique<Solver<D3Q19>>(Grid(n.x, n.y, n.z),
                                             collision_from_config(cfg));
  const auto lid = c.solver->materials().addMovingWall({c.uRef, 0, 0});
  c.solver->paint({{0, 0, n.z - 1}, {n.x, n.y, n.z}}, lid);
  c.solver->finalizeMask();
  c.solver->initUniform(1.0, {0, 0, 0});
  return c;
}

Case buildChannel(const Config& cfg) {
  const Int3 n = sizeFrom(cfg, 8, 32, 8);
  Case c;
  c.name = "channel";
  const Real g = cfg.getReal("body_force", 1e-6);
  CollisionConfig col = collision_from_config(cfg);
  // Guo forcing exists on the BGK path only; TRT/MRT would drop it.
  if (col.op != CollisionOp::BGK)
    throw Error("config: the channel case's body force requires the BGK "
                "operator");
  col.bodyForce = {g, 0, 0};
  c.solver = std::make_unique<Solver<D3Q19>>(Grid(n.x, n.y, n.z), col,
                                             Periodicity{true, false, true});
  c.solver->finalizeMask();
  c.solver->initUniform(1.0, {0, 0, 0});
  const Real nu = viscosity_from_tau(1.0 / col.omega);
  c.uRef = g / (8 * nu) * n.y * n.y;  // centreline Poiseuille velocity
  return c;
}

Case buildCylinder(const Config& cfg) {
  const Int3 n = sizeFrom(cfg, 120, 60, 12);
  Case c;
  c.name = "cylinder";
  c.uRef = cfg.getReal("inlet_velocity", 0.05);
  c.solver = std::make_unique<Solver<D3Q19>>(Grid(n.x, n.y, n.z),
                                             collision_from_config(cfg),
                                             Periodicity{false, false, true});
  auto& s = *c.solver;
  const auto inlet = s.materials().addVelocityInlet({c.uRef, 0, 0});
  const auto outlet = s.materials().addOutflow({-1, 0, 0});
  s.paint({{0, 0, 0}, {1, n.y, n.z}}, inlet);
  s.paint({{n.x - 1, 0, 0}, {n.x, n.y, n.z}}, outlet);
  c.obstacleId = s.materials().add(
      Material{CellClass::Solid, {0, 0, 0}, 1.0, {0, 0, 0}});
  const Real d = cfg.getReal("diameter", n.y / 5.0);
  const Real cx = n.x / 4.0, cy = n.y / 2.0 + 0.5;
  for (int y = 0; y < n.y; ++y)
    for (int x = 0; x < n.x; ++x) {
      const Real ddx = x + 0.5 - cx, ddy = y + 0.5 - cy;
      if (ddx * ddx + ddy * ddy < d * d / 4)
        for (int z = 0; z < n.z; ++z) s.mask()(x, y, z) = c.obstacleId;
    }
  s.finalizeMask();
  s.initUniform(1.0, {c.uRef, 0, 0});
  return c;
}

Case buildTgv(const Config& cfg) {
  const Int3 n = sizeFrom(cfg, 32, 32, 1);
  Case c;
  c.name = "tgv";
  c.uRef = cfg.getReal("amplitude", 0.02);
  c.solver = std::make_unique<Solver<D3Q19>>(Grid(n.x, n.y, n.z),
                                             collision_from_config(cfg),
                                             Periodicity{true, true, true});
  c.solver->finalizeMask();
  const Real kx = 2 * std::numbers::pi_v<Real> / n.x;
  const Real ky = 2 * std::numbers::pi_v<Real> / n.y;
  const Real a = c.uRef;
  c.solver->initField([&](int x, int y, int, Real& rho, Vec3& u) {
    rho = 1.0;
    u = {-a * std::cos(kx * (x + Real(0.5))) * std::sin(ky * (y + Real(0.5))),
         a * std::sin(kx * (x + Real(0.5))) * std::cos(ky * (y + Real(0.5))), 0};
  });
  return c;
}

Case buildSuboff(const Config& cfg) {
  const Int3 n = sizeFrom(cfg, 128, 40, 40);
  Case c;
  c.name = "suboff";
  c.uRef = cfg.getReal("inlet_velocity", 0.05);
  c.solver = std::make_unique<Solver<D3Q19>>(Grid(n.x, n.y, n.z),
                                             collision_from_config(cfg),
                                             Periodicity{false, true, true});
  auto& s = *c.solver;
  const auto inlet = s.materials().addVelocityInlet({c.uRef, 0, 0});
  const auto outlet = s.materials().addOutflow({-1, 0, 0});
  s.paint({{0, 0, 0}, {1, n.y, n.z}}, inlet);
  s.paint({{n.x - 1, 0, 0}, {n.x, n.y, n.z}}, outlet);
  c.obstacleId = s.materials().add(
      Material{CellClass::Solid, {0, 0, 0}, 1.0, {0, 0, 0}, 0});
  const int hullLen = static_cast<int>(cfg.getInt("hull_length", n.x / 2));
  const Real maxR = cfg.getReal("hull_radius", hullLen / 12.0);
  const mesh::TriangleMesh hull = mesh::make_suboff(hullLen, maxR);
  const int pad = static_cast<int>(maxR) + 1;
  const mesh::VoxelGrid vox = mesh::voxelize(
      hull, {hullLen, 2 * pad, 2 * pad}, {0, -static_cast<Real>(pad),
      -static_cast<Real>(pad)}, 1.0);
  vox.paint(s.mask(), c.obstacleId, {n.x / 4, n.y / 2 - pad, n.z / 2 - pad});
  s.finalizeMask();
  s.initUniform(1.0, {c.uRef, 0, 0});
  return c;
}

Case buildUrban(const Config& cfg) {
  const Int3 n = sizeFrom(cfg, 96, 72, 30);
  Case c;
  c.name = "urban";
  c.uRef = cfg.getReal("inlet_velocity", 0.06);
  CollisionConfig col = collision_from_config(cfg);
  if (!cfg.has("les")) col.les = true;  // urban wind is an LES case
  c.solver = std::make_unique<Solver<D3Q19>>(Grid(n.x, n.y, n.z), col,
                                             Periodicity{false, true, false});
  auto& s = *c.solver;
  const auto inlet = s.materials().addVelocityInlet({c.uRef, 0, 0});
  const auto outlet = s.materials().addOutflow({-1, 0, 0});
  s.paint({{0, 0, 0}, {1, n.y, n.z}}, inlet);
  s.paint({{n.x - 1, 0, 0}, {n.x, n.y, n.z}}, outlet);
  c.obstacleId = s.materials().add(
      Material{CellClass::Solid, {0, 0, 0}, 1.0, {0, 0, 0}, 0});
  mesh::UrbanConfig city;
  city.blockCells = static_cast<int>(cfg.getInt("block_cells", n.x / 10));
  city.streetCells = static_cast<int>(cfg.getInt("street_cells", n.x / 20));
  city.minHeight = static_cast<Real>(n.z) / 8;
  city.maxHeight = static_cast<Real>(n.z) / 2;
  city.seed = static_cast<unsigned>(cfg.getInt("seed", 7));
  mesh::make_urban_heightmap(n.x, n.y, city).paint(s.mask(), c.obstacleId);
  s.finalizeMask();
  s.initUniform(1.0, {c.uRef, 0, 0});
  return c;
}

}  // namespace

Case build_case(const Config& cfg) {
  const std::string name = cfg.getString("case");
  if (name == "cavity") return buildCavity(cfg);
  if (name == "channel") return buildChannel(cfg);
  if (name == "cylinder") return buildCylinder(cfg);
  if (name == "tgv") return buildTgv(cfg);
  if (name == "suboff") return buildSuboff(cfg);
  if (name == "urban") return buildUrban(cfg);
  throw Error("config: unknown case '" + name +
              "' (cavity|channel|cylinder|tgv|suboff|urban)");
}

}  // namespace swlb::app
