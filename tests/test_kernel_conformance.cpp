// Conformance suite for every stream/collide variant (DESIGN.md §11):
// bit-identity to the fused pull kernel at f64, bit-identity at the same
// reduced storage, quantization-bounded agreement across storage types,
// mass conservation, bounce-back rest states and multithreaded sweep
// parity — over odd extents, all boundary mask patterns, rows longer than
// two bulk chunks, every collision operator, and both D2Q9 and D3Q19.
// tests/kernel_conformance.hpp holds the reusable harness so future
// backends can run the same contract.
#include "kernel_conformance.hpp"

#include <vector>

namespace swlb {
namespace {

using conformance::Scenario;
using conformance::expectEquivalent;
using conformance::expectMassConserved;
using conformance::initSmooth;
using conformance::makeSolver;
using conformance::runLockstep;

std::vector<Scenario> scenarios(bool twoD) {
  std::vector<Scenario> out;
  const int nz = twoD ? 1 : 3;
  const Periodicity perAll{true, true, !twoD};
  const Periodicity perYZ{false, true, !twoD};
  out.push_back({"all_fluid_periodic", {7, 5, nz}, perAll, nullptr, false});
  out.push_back({"solid_obstacle", {9, 7, nz}, perAll,
                 [](MaskField& mask, MaterialTable&, const Grid& g) {
                   for (int z = 0; z < g.nz; ++z)
                     for (int y = 2; y < 5; ++y)
                       for (int x = 3; x < 6; ++x)
                         mask(x, y, z) = MaterialTable::kSolid;
                 },
                 false});
  out.push_back({"moving_lid", {7, 5, nz}, Periodicity{false, false, false},
                 [](MaskField& mask, MaterialTable& mats, const Grid& g) {
                   const auto lid = mats.addMovingWall({0.05, 0, 0});
                   for (int z = 0; z < g.nz; ++z)
                     for (int x = 0; x < g.nx; ++x)
                       mask(x, g.ny - 1, z) = lid;
                 },
                 false});
  out.push_back({"zouhe_channel", {11, 5, nz}, perYZ,
                 [](MaskField& mask, MaterialTable& mats, const Grid& g) {
                   const auto in = mats.addZouHeVelocity({0.03, 0, 0}, {1, 0, 0});
                   const auto outP = mats.addZouHePressure(1.0, {-1, 0, 0});
                   for (int z = 0; z < g.nz; ++z)
                     for (int y = 0; y < g.ny; ++y) {
                       mask(0, y, z) = in;
                       mask(g.nx - 1, y, z) = outP;
                     }
                 },
                 false});
  out.push_back({"porous_block", {7, 5, nz}, perAll,
                 [](MaskField& mask, MaterialTable& mats, const Grid& g) {
                   const auto por = mats.addPorous(0.4);
                   for (int z = 0; z < g.nz; ++z)
                     for (int y = 1; y < 4; ++y)
                       for (int x = 2; x < 5; ++x) mask(x, y, z) = por;
                 },
                 false});
  out.push_back({"inlet_outflow", {9, 5, nz}, perYZ,
                 [](MaskField& mask, MaterialTable& mats, const Grid& g) {
                   const auto in = mats.addVelocityInlet({0.04, 0, 0});
                   const auto outF = mats.addOutflow({-1, 0, 0});
                   for (int z = 0; z < g.nz; ++z)
                     for (int y = 0; y < g.ny; ++y) {
                       mask(0, y, z) = in;
                       mask(g.nx - 1, y, z) = outF;
                     }
                 },
                 true});
  out.push_back({"mixed_walls", {9, 7, nz}, Periodicity{true, false, !twoD},
                 [](MaskField& mask, MaterialTable& mats, const Grid& g) {
                   const auto lid = mats.addMovingWall({0.04, 0, 0});
                   const auto por = mats.addPorous(0.25);
                   for (int z = 0; z < g.nz; ++z)
                     for (int x = 0; x < g.nx; ++x)
                       mask(x, g.ny - 1, z) = lid;
                   for (int z = 0; z < g.nz; ++z)
                     for (int x = 2; x < 4; ++x) {
                       mask(x, 2, z) = MaterialTable::kSolid;
                       if (g.ny > 4) mask(x, 4, z) = por;
                     }
                 },
                 false});
  return out;
}

// Odd rows of 151 cells span three bulk chunks of the fused kernel
// (64 + 64 + 23).  Isolated solids in row y = 1 break the rows y = 0..2
// mid-window and at a window start (x = 64), so bulk runs begin and end
// inside windows; the rows y = 3, 4 stay one bulk run across both window
// edges.
Scenario longRows() {
  return {"long_rows", {151, 5, 3}, Periodicity{true, true, true},
          [](MaskField& mask, MaterialTable&, const Grid&) {
            mask(37, 1, 1) = MaterialTable::kSolid;
            mask(64, 1, 0) = MaterialTable::kSolid;
            mask(100, 1, 2) = MaterialTable::kSolid;
            mask(130, 1, 1) = MaterialTable::kSolid;
          },
          false};
}

/// The D3Q19 scenarios plus the long rows.
std::vector<Scenario> scenarios3DWithLongRows() {
  std::vector<Scenario> out = scenarios(false);
  out.push_back(longRows());
  return out;
}

constexpr int kSteps = 6;  // even: Esoteric ends in natural layout

// The two-lattice ablation kernels, run as plain functions on an
// AblationRun.  Push is absent: it collides before streaming, so after N
// steps its populations sit a half-update away from the pull family's —
// the same physics, but not a step-synchronous trajectory.  It is covered
// by the invariant tests below instead (test_kernels.cpp likewise checks
// it via conservation only).
const char* const kTwoLattice[] = {"generic", "twostep"};

// ---- f64 bit-identity: every variant, every scenario, both lattices ----

TEST(KernelConformance, BitIdentityF64_D3Q19) {
  for (const Scenario& sc : scenarios3DWithLongRows()) {
    for (const char* name : kTwoLattice)
      runLockstep<D3Q19, double, double>(sc, name, kSteps, 0);
    if (!sc.hasOutflow)
      runLockstep<D3Q19, double, double>(sc, "esoteric", kSteps, 0);
  }
}

TEST(KernelConformance, BitIdentityF64_D2Q9) {
  for (const Scenario& sc : scenarios(true)) {
    for (const char* name : kTwoLattice)
      runLockstep<D2Q9, double, double>(sc, name, kSteps, 0);
    if (!sc.hasOutflow)
      runLockstep<D2Q9, double, double>(sc, "esoteric", kSteps, 0);
  }
}

// ---- same reduced storage: still bit-identical -------------------------
// The variants execute identical Real expression trees between decode and
// encode, so equal storage types must agree exactly, not approximately.

TEST(KernelConformance, BitIdentitySameStorageF32) {
  for (const Scenario& sc : scenarios3DWithLongRows()) {
    runLockstep<D3Q19, float, float>(sc, "generic", kSteps, 0);
    if (!sc.hasOutflow)
      runLockstep<D3Q19, float, float>(sc, "esoteric", kSteps, 0);
  }
}

TEST(KernelConformance, BitIdentitySameStorageF16) {
  for (const Scenario& sc : scenarios3DWithLongRows()) {
    runLockstep<D3Q19, f16, f16>(sc, "generic", kSteps, 0);
    if (!sc.hasOutflow)
      runLockstep<D3Q19, f16, f16>(sc, "esoteric", kSteps, 0);
  }
}

// ---- reduced storage vs f64: quantization-bounded ----------------------
// Each step encodes once; the stored DDF-shifted deviations are O(0.1), so
// a per-step error of ~kEpsilon compounds roughly linearly over kSteps.
// The bound uses a generous constant — it must catch scheme bugs (O(1)
// errors), not pin the exact rounding.

TEST(KernelConformance, QuantizationBoundF32) {
  const double tol = 64.0 * StorageTraits<float>::kEpsilon * kSteps;
  for (const Scenario& sc : scenarios(false)) {
    runLockstep<D3Q19, double, float>(sc, "fused", kSteps, tol);
    if (!sc.hasOutflow)
      runLockstep<D3Q19, double, float>(sc, "esoteric", kSteps, tol);
  }
}

TEST(KernelConformance, QuantizationBoundF16) {
  const double tol = 64.0 * StorageTraits<f16>::kEpsilon * kSteps;
  for (const Scenario& sc : scenarios(false)) {
    runLockstep<D3Q19, double, f16>(sc, "fused", kSteps, tol);
    if (!sc.hasOutflow)
      runLockstep<D3Q19, double, f16>(sc, "esoteric", kSteps, tol);
  }
}

// ---- invariants --------------------------------------------------------

TEST(KernelConformance, MassConservedClosedBox) {
  // Closed box (non-periodic => solid halo walls) with an obstacle, odd
  // extents; 7 steps so the esoteric solver is probed at an odd phase.
  Scenario closed{"closed_box", {7, 5, 3}, Periodicity{false, false, false},
                  [](MaskField& mask, MaterialTable&, const Grid& g) {
                    for (int z = 0; z < g.nz; ++z)
                      mask(3, 2, z) = MaterialTable::kSolid;
                  },
                  false};
  for (const char* name : {"fused", "esoteric", "push"})
    expectMassConserved<D3Q19, double>(closed, name, 7);
}

TEST(KernelConformance, RestStateFixedPoint) {
  // Uniform equilibrium at rest next to plain walls is a fixed point up
  // to f64 rounding of the moment sums (the weight sums are not exact in
  // binary, so bitwise invariance is too strong — but any streaming or
  // bounce-back defect shows up as an O(f) error, 12+ orders larger).
  Scenario box{"rest_box", {5, 5, 3}, Periodicity{false, false, false},
               nullptr, false};
  for (const char* name : {"fused", "esoteric"}) {
    Solver<D3Q19, double> s = makeSolver<D3Q19, double>(box);
    s.setBackend(name);
    s.finalizeMask();
    s.initUniform(1.0, {0, 0, 0});
    Real feq[D3Q19::Q];
    equilibria<D3Q19>(1.0, {0, 0, 0}, feq);
    s.run(4);
    for (int z = 0; z < 3; ++z)
      for (int y = 0; y < 5; ++y)
        for (int x = 0; x < 5; ++x)
          for (int i = 0; i < D3Q19::Q; ++i)
            ASSERT_NEAR(s.population(i, x, y, z), feq[i], 5e-14)
                << name << " at i=" << i << " (" << x << ","
                << y << "," << z << ")";
  }
}

// ---- collision-operator axis -------------------------------------------
// The fused kernel resolves the operator once per sweep and runs BGK and
// BGK+Guo bulk runs at f64/f32 storage direction-outer in chunks; generic
// still collides cell by cell through collide_cell.  Bitwise agreement
// under every operator and storage type pins the chunk and the hoisted
// scalar path to the per-cell body.

template <class S>
void expectFusedMatchesGenericPerOperator() {
  for (const conformance::Operator& op : conformance::collisionOperators())
    for (const Scenario& sc : scenarios3DWithLongRows())
      runLockstep<D3Q19, S, S>(conformance::withOperator(sc, op), "generic",
                               kSteps, 0);
}

TEST(KernelConformance, OperatorsBitIdenticalF64) {
  expectFusedMatchesGenericPerOperator<double>();
}

TEST(KernelConformance, OperatorsBitIdenticalF32) {
  expectFusedMatchesGenericPerOperator<float>();
}

TEST(KernelConformance, OperatorsBitIdenticalF16) {
  expectFusedMatchesGenericPerOperator<f16>();
}

// ---- registry-driven coverage ------------------------------------------
// Everything registered for a (lattice, storage) pair runs bitwise in
// lockstep with fused; a backend added to the registry is covered with no
// test edits.  This sweep is what pins "swcpe" — the hand-written lists
// above keep the narrow bounds documented.  The ablation kernels ride the
// same sweep: generic and twostep bitwise in lockstep, push (not
// step-synchronous) by mass conservation where every axis is walled.

template <class D>
void runAblations(const Scenario& sc) {
  for (const char* name : kTwoLattice)
    runLockstep<D, double, double>(sc, name, kSteps, 0);
  if (!sc.periodic.x && !sc.periodic.y && !sc.periodic.z)
    expectMassConserved<D, double>(sc, "push", kSteps);
}

TEST(KernelConformance, RegisteredBackendsConformD3Q19) {
  for (const conformance::Operator& op : conformance::collisionOperators())
    for (const Scenario& sc : scenarios3DWithLongRows()) {
      const Scenario withOp = conformance::withOperator(sc, op);
      conformance::runRegisteredBackends<D3Q19, double>(withOp, kSteps);
      runAblations<D3Q19>(withOp);
    }
}

TEST(KernelConformance, RegisteredBackendsConformD2Q9) {
  for (const Scenario& sc : scenarios(true)) {
    conformance::runRegisteredBackends<D2Q9, double>(sc, kSteps);
    runAblations<D2Q9>(sc);
  }
}

// ---- host-thread parity -------------------------------------------------
// The executor slices every caps.subRange backend (fused, esoteric) into
// team_slab z-slabs; whatever the lane count (2, 3, and 0 = one per
// hardware core), each backend must stay bitwise equal to itself at one
// lane, at every storage type.  Registry-driven, so a new sub-range
// backend is covered with no test edits.

template <class S>
void expectThreadCountParity() {
  for (const std::string& name : backend_names<D3Q19, S>()) {
    const BackendCaps& caps = find_backend_info(name)->caps;
    if (!caps.subRange) continue;
    for (int lanes : {2, 3, 0}) {
      for (const Scenario& sc : scenarios3DWithLongRows()) {
        if (sc.hasOutflow && caps.inPlaceStreaming) continue;
        SCOPED_TRACE(sc.name + "/" + name + "/" + StorageTraits<S>::name() +
                     " lanes=" + std::to_string(lanes));
        Solver<D3Q19, S> one = makeSolver<D3Q19, S>(sc);
        Solver<D3Q19, S> many = makeSolver<D3Q19, S>(sc);
        one.setBackend(name);
        many.setBackend(name);
        many.setHostThreads(lanes);
        one.finalizeMask();
        many.finalizeMask();
        initSmooth(one);
        initSmooth(many);
        for (int s = 0; s < kSteps; ++s) {
          one.step();
          many.step();
          expectEquivalent<D3Q19>(one, many, 0,
                                  "step " + std::to_string(s + 1));
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(KernelConformance, ThreadCountParityF64) {
  expectThreadCountParity<double>();
}

TEST(KernelConformance, ThreadCountParityF32) {
  expectThreadCountParity<float>();
}

TEST(KernelConformance, ThreadCountParityF16) {
  expectThreadCountParity<f16>();
}

// ---- explicit capability rejection (no silent fallbacks) ---------------

TEST(KernelConformance, UnknownBackendNameThrowsWithRegisteredList) {
  // The ablation kernels are plain functions, not backends: their names
  // are as unknown to the registry as a typo.
  Scenario sc = scenarios(false)[0];
  for (const char* name : {"warp", "generic", "twostep", "push"}) {
    SCOPED_TRACE(name);
    Solver<D3Q19, double> s = makeSolver<D3Q19, double>(sc);
    try {
      s.setBackend(name);
      ADD_FAILURE() << "expected Error for unknown backend name";
    } catch (const Error& e) {
      // The message must enumerate what IS registered so the caller can
      // fix a typo without reading source.
      EXPECT_NE(std::string(e.what()).find("fused"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos);
    }
  }
  EXPECT_EQ((backend_names<D3Q19, double>()),
            (std::vector<std::string>{"fused", "esoteric", "swcpe"}));
}

TEST(KernelConformance, SwCpeNotRegisteredForWideLattices) {
  // The CPE emulator only instantiates for the paper's lattices
  // (D2Q9/D3Q19); asking for it on D3Q15 must be an explicit refusal,
  // not a silent fall-back to another kernel.
  const Grid g(5, 5, 3);
  CollisionConfig cc;
  cc.omega = 1.7;
  Solver<D3Q15, double> s(g, cc, Periodicity{true, true, true});
  EXPECT_THROW(s.setBackend("swcpe"), Error);
  EXPECT_TRUE((BackendRegistry<D3Q19, double>::instance().has("swcpe")));
  EXPECT_FALSE((BackendRegistry<D3Q15, double>::instance().has("swcpe")));
}

TEST(KernelConformance, CatalogAndRegistryAgree) {
  // Every registered backend has a catalog row (name, summary, caps) and
  // vice versa for the lattices it claims; find_backend_info is how docs
  // and the tuner reason about capabilities, so the two must not drift.
  for (const std::string& name : backend_names<D3Q19, double>()) {
    const BackendInfo* info = find_backend_info(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_FALSE(info->summary.empty()) << name;
    auto b = make_backend<D3Q19, double>(name);
    EXPECT_EQ(b->info().name, name);
  }
}

TEST(KernelConformance, EsotericRejectsOutflow) {
  Scenario sc = scenarios(false)[5];  // inlet_outflow
  Solver<D3Q19, double> s = makeSolver<D3Q19, double>(sc);
  s.setBackend("esoteric");
  EXPECT_THROW(s.finalizeMask(), Error);
}

TEST(KernelConformance, EsotericHalvesPopulationMemory) {
  Scenario sc = scenarios(false)[0];
  Solver<D3Q19, double> two = makeSolver<D3Q19, double>(sc);
  Solver<D3Q19, double> one = makeSolver<D3Q19, double>(sc);
  one.setBackend("esoteric");
  EXPECT_EQ(one.populationBytes() * 2, two.populationBytes());
}

}  // namespace
}  // namespace swlb
