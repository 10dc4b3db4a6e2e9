// BGK collision invariants, Guo forcing, Smagorinsky subgrid closure.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/collision.hpp"

namespace swlb {
namespace {

template <class D>
void randomPopulations(Real* f, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<Real> dist(0.01, 0.2);
  for (int i = 0; i < D::Q; ++i) f[i] = D::w[i] + dist(rng) * D::w[i];
}

template <class D>
class CollisionTest : public ::testing::Test {};

using Descriptors = ::testing::Types<D2Q9, D3Q15, D3Q19, D3Q27>;
TYPED_TEST_SUITE(CollisionTest, Descriptors);

TYPED_TEST(CollisionTest, ConservesMassAndMomentum) {
  using D = TypeParam;
  for (Real omega : {0.6, 1.0, 1.6, 1.95}) {
    Real f[D::Q];
    randomPopulations<D>(f, 42);
    Real rho0;
    Vec3 m0;
    moments<D>(f, rho0, m0);

    CollisionConfig cfg;
    cfg.omega = omega;
    Real rho;
    Vec3 u;
    collide_cell<D>(f, cfg, rho, u);

    Real rho1;
    Vec3 m1;
    moments<D>(f, rho1, m1);
    EXPECT_NEAR(rho1, rho0, 1e-13);
    EXPECT_NEAR(m1.x, m0.x, 1e-13);
    EXPECT_NEAR(m1.y, m0.y, 1e-13);
    EXPECT_NEAR(m1.z, m0.z, 1e-13);
  }
}

TYPED_TEST(CollisionTest, OmegaOneProjectsOntoEquilibrium) {
  using D = TypeParam;
  Real f[D::Q];
  randomPopulations<D>(f, 7);
  Real rho0;
  Vec3 m0;
  moments<D>(f, rho0, m0);
  const Vec3 u0{m0.x / rho0, m0.y / rho0, m0.z / rho0};

  CollisionConfig cfg;
  cfg.omega = 1.0;
  Real rho;
  Vec3 u;
  collide_cell<D>(f, cfg, rho, u);

  Real feq[D::Q];
  equilibria<D>(rho0, u0, feq);
  for (int i = 0; i < D::Q; ++i) EXPECT_NEAR(f[i], feq[i], 1e-14);
}

TYPED_TEST(CollisionTest, EquilibriumIsFixedPoint) {
  using D = TypeParam;
  Real f[D::Q];
  const Vec3 u0 = D::dim == 2 ? Vec3{0.05, -0.02, 0} : Vec3{0.05, -0.02, 0.03};
  equilibria<D>(1.1, u0, f);
  Real before[D::Q];
  for (int i = 0; i < D::Q; ++i) before[i] = f[i];

  CollisionConfig cfg;
  cfg.omega = 1.7;
  Real rho;
  Vec3 u;
  collide_cell<D>(f, cfg, rho, u);
  for (int i = 0; i < D::Q; ++i) EXPECT_NEAR(f[i], before[i], 1e-13);
}

TYPED_TEST(CollisionTest, GuoForceAddsMomentum) {
  using D = TypeParam;
  // One collision with constant force F changes momentum by exactly F
  // (Guo scheme: half at moment evaluation, half via the source term).
  Real f[D::Q];
  equilibria<D>(1.0, {0, 0, 0}, f);
  CollisionConfig cfg;
  cfg.omega = 1.2;
  cfg.bodyForce = D::dim == 2 ? Vec3{1e-4, -2e-5, 0} : Vec3{1e-4, -2e-5, 3e-5};
  Real rho;
  Vec3 u;
  collide_cell<D>(f, cfg, rho, u);
  Real rho1;
  Vec3 m1;
  moments<D>(f, rho1, m1);
  EXPECT_NEAR(rho1, 1.0, 1e-13);
  EXPECT_NEAR(m1.x, cfg.bodyForce.x, 1e-12);
  EXPECT_NEAR(m1.y, cfg.bodyForce.y, 1e-12);
  EXPECT_NEAR(m1.z, cfg.bodyForce.z, 1e-12);
}

TYPED_TEST(CollisionTest, ReportedVelocityIncludesHalfForce) {
  using D = TypeParam;
  Real f[D::Q];
  equilibria<D>(1.0, {0, 0, 0}, f);
  CollisionConfig cfg;
  cfg.omega = 1.0;
  cfg.bodyForce = {2e-4, 0, 0};
  Real rho;
  Vec3 u;
  collide_cell<D>(f, cfg, rho, u);
  EXPECT_NEAR(u.x, 1e-4, 1e-15);
}

TYPED_TEST(CollisionTest, SmagorinskyReducesToBgkAtEquilibrium) {
  using D = TypeParam;
  Real f[D::Q];
  equilibria<D>(1.0, {0.03, 0.01, 0}, f);
  Real feq[D::Q];
  for (int i = 0; i < D::Q; ++i) feq[i] = f[i];
  const Real omega = smagorinsky_omega<D>(f, feq, 1.0, 1.6, 0.1);
  EXPECT_NEAR(omega, 1.6, 1e-12);
}

TYPED_TEST(CollisionTest, SmagorinskyIncreasesEffectiveViscosity) {
  using D = TypeParam;
  Real f[D::Q];
  randomPopulations<D>(f, 99);
  Real rho0;
  Vec3 m0;
  moments<D>(f, rho0, m0);
  Real feq[D::Q];
  equilibria<D>(rho0, {m0.x / rho0, m0.y / rho0, m0.z / rho0}, feq);
  const Real omega0 = 1.6;
  const Real omega = smagorinsky_omega<D>(f, feq, rho0, omega0, 0.16);
  EXPECT_LT(omega, omega0);  // tau_eff > tau0 => extra (eddy) viscosity
  EXPECT_GT(omega, 0.0);
  // Larger Smagorinsky constant => more eddy viscosity.
  const Real omegaBig = smagorinsky_omega<D>(f, feq, rho0, omega0, 0.3);
  EXPECT_LT(omegaBig, omega);
}

TYPED_TEST(CollisionTest, LesCollisionStillConservesInvariants) {
  using D = TypeParam;
  Real f[D::Q];
  randomPopulations<D>(f, 5);
  Real rho0;
  Vec3 m0;
  moments<D>(f, rho0, m0);
  CollisionConfig cfg;
  cfg.omega = 1.5;
  cfg.les = true;
  cfg.smagorinskyCs = 0.14;
  Real rho;
  Vec3 u;
  collide_cell<D>(f, cfg, rho, u);
  Real rho1;
  Vec3 m1;
  moments<D>(f, rho1, m1);
  EXPECT_NEAR(rho1, rho0, 1e-13);
  EXPECT_NEAR(m1.x, m0.x, 1e-13);
  EXPECT_NEAR(m1.y, m0.y, 1e-13);
  EXPECT_NEAR(m1.z, m0.z, 1e-13);
}

}  // namespace
}  // namespace swlb
