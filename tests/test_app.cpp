// Config parser and built-in case builders of the CLI driver.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "app/cases.hpp"
#include "sw/athread.hpp"

namespace swlb::app {
namespace {

Config fromString(const std::string& text) {
  std::istringstream in(text);
  return Config::parse(in);
}

TEST(ConfigParser, KeyValueWithCommentsAndWhitespace) {
  const Config cfg = fromString(
      "# a comment\n"
      "case = cavity\n"
      "  nx =  64   # trailing comment\n"
      "omega=1.5\n"
      "\n"
      "vtk = true\n");
  EXPECT_EQ(cfg.size(), 4u);
  EXPECT_EQ(cfg.getString("case"), "cavity");
  EXPECT_EQ(cfg.getInt("nx"), 64);
  EXPECT_DOUBLE_EQ(cfg.getReal("omega"), 1.5);
  EXPECT_TRUE(cfg.getBool("vtk", false));
}

TEST(ConfigParser, DefaultsAndStrictGetters) {
  const Config cfg = fromString("a = 1\n");
  EXPECT_EQ(cfg.getInt("a"), 1);
  EXPECT_EQ(cfg.getInt("missing", 7), 7);
  EXPECT_EQ(cfg.getString("missing", "x"), "x");
  EXPECT_THROW(cfg.getString("missing"), Error);
  EXPECT_THROW(cfg.getInt("missing"), Error);
}

TEST(ConfigParser, TypeErrorsAreLoud) {
  const Config cfg = fromString("n = twelve\nf = 1.2.3\nb = maybe\n");
  EXPECT_THROW(cfg.getInt("n"), Error);
  EXPECT_THROW(cfg.getReal("f"), Error);
  EXPECT_THROW(cfg.getBool("b", false), Error);
}

TEST(ConfigParser, MalformedLinesThrow) {
  EXPECT_THROW(fromString("this is not a key value pair\n"), Error);
  EXPECT_THROW(fromString("= value\n"), Error);
  EXPECT_THROW(Config::load("/nonexistent/swlb.cfg"), Error);
}

TEST(ConfigParser, BooleanSpellings) {
  const Config cfg = fromString("a=yes\nb=off\nc=1\nd=False\n");
  EXPECT_TRUE(cfg.getBool("a", false));
  EXPECT_FALSE(cfg.getBool("b", true));
  EXPECT_TRUE(cfg.getBool("c", false));
  EXPECT_FALSE(cfg.getBool("d", true));
}

// ---------------------------------------------------------------- cases

TEST(CollisionFromConfig, OmegaTauViscosityAndOperators) {
  EXPECT_DOUBLE_EQ(collision_from_config(fromString("omega = 1.2\n")).omega, 1.2);
  EXPECT_DOUBLE_EQ(collision_from_config(fromString("tau = 0.8\n")).omega, 1.25);
  EXPECT_NEAR(collision_from_config(fromString("viscosity = 0.1666666666666667\n")).omega,
              1.0, 1e-12);
  EXPECT_EQ(collision_from_config(fromString("operator = trt\n")).op,
            CollisionOp::TRT);
  EXPECT_EQ(collision_from_config(fromString("operator = mrt\n")).op,
            CollisionOp::MRT);
  EXPECT_THROW(collision_from_config(fromString("operator = srt\n")), Error);
  EXPECT_THROW(collision_from_config(fromString("omega = 2.5\n")), Error);
  EXPECT_THROW(collision_from_config(fromString("les = true\noperator = mrt\n")),
               Error);
}

TEST(CaseBuilder, CavityRunsAndLidDrives) {
  Case c = build_case(fromString("case = cavity\nnx = 12\nny = 12\nnz = 12\n"));
  ASSERT_EQ(c.name, "cavity");
  c.solver->run(100);
  EXPECT_GT(c.solver->velocity(6, 6, 10).x, 0.0);
}

TEST(CaseBuilder, ChannelDevelopsPoiseuille) {
  Case c = build_case(
      fromString("case = channel\nnx = 4\nny = 16\nnz = 4\nbody_force = 1e-6\n"));
  c.solver->run(4000);
  // Centreline faster than near-wall.
  EXPECT_GT(c.solver->velocity(2, 8, 2).x, c.solver->velocity(2, 0, 2).x);
  EXPECT_GT(c.uRef, 0.0);
}

TEST(CaseBuilder, ChannelRejectsNonBgkOperators) {
  // Guo forcing exists on the BGK path only: TRT/MRT would run the
  // channel with no driving force at all.
  for (const char* op : {"trt", "mrt"}) {
    SCOPED_TRACE(op);
    EXPECT_THROW(build_case(fromString("case = channel\nnx = 4\nny = 8\n"
                                       "nz = 4\noperator = " +
                                       std::string(op) + "\n")),
                 Error);
  }
}

TEST(CaseBuilder, RejectsExtentsBelowOneCell) {
  const std::string keys[] = {"nx", "ny", "nz"};
  for (const std::string& key : keys)
    for (const std::string bad : {"0", "-3"}) {
      SCOPED_TRACE(key + " = " + bad);
      std::string text = "case = cavity\n";
      for (const std::string& k : keys)
        text += k + " = " + (k == key ? bad : "8") + "\n";
      try {
        build_case(fromString(text));
        ADD_FAILURE() << "expected Error naming " << key;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
}

TEST(CaseBuilder, CylinderHasObstacleAndFlow) {
  Case c = build_case(fromString(
      "case = cylinder\nnx = 40\nny = 20\nnz = 4\ndiameter = 6\nomega = 1.2\n"));
  ASSERT_NE(c.obstacleId, 0);
  int obstacleCells = 0;
  for (int y = 0; y < 20; ++y)
    for (int x = 0; x < 40; ++x)
      if (c.solver->mask()(x, y, 0) == c.obstacleId) ++obstacleCells;
  EXPECT_GT(obstacleCells, 20);
  c.solver->run(50);
  EXPECT_GT(c.solver->velocity(30, 10, 2).x, 0.0);
}

TEST(CaseBuilder, TgvDecays) {
  Case c = build_case(fromString("case = tgv\nnx = 16\nny = 16\nomega = 1.0\n"));
  const Real u0 = std::abs(c.solver->velocity(0, 4, 0).x);
  c.solver->run(300);
  EXPECT_LT(std::abs(c.solver->velocity(0, 4, 0).x), u0);
}

TEST(CaseBuilder, SuboffVoxelizesAHull) {
  Case c = build_case(fromString(
      "case = suboff\nnx = 64\nny = 24\nnz = 24\nhull_length = 32\n"));
  ASSERT_NE(c.obstacleId, 0);
  long long hullCells = 0;
  for (int z = 0; z < 24; ++z)
    for (int y = 0; y < 24; ++y)
      for (int x = 0; x < 64; ++x)
        if (c.solver->mask()(x, y, z) == c.obstacleId) ++hullCells;
  EXPECT_GT(hullCells, 50);
  c.solver->run(30);
  EXPECT_GT(c.solver->velocity(2, 12, 12).x, 0.0);
}

TEST(CaseBuilder, UrbanPaintsBuildingsAndDefaultsToLes) {
  Case c = build_case(fromString("case = urban\nnx = 48\nny = 36\nnz = 16\n"));
  EXPECT_TRUE(c.solver->collision().les);
  int built = 0;
  for (int y = 0; y < 36; ++y)
    for (int x = 0; x < 48; ++x)
      if (c.solver->mask()(x, y, 0) == c.obstacleId) ++built;
  EXPECT_GT(built, 50);
  c.solver->run(30);
  EXPECT_GT(c.solver->velocity(2, 18, 14).x, 0.0);
}

TEST(CaseBuilder, UnknownCaseThrows) {
  EXPECT_THROW(build_case(fromString("case = warpdrive\n")), Error);
  EXPECT_THROW(build_case(fromString("nx = 4\n")), Error);  // no case key
}

// -------------------------------------------------------------- athread

TEST(AthreadApi, SpawnJoinRunsOnAllCpes) {
  sw::Athread at(sw::MachineSpec::sw26010().cg);
  EXPECT_THROW(at.spawnJoin([](sw::CpeContext&) {}), Error);  // before init
  at.init();
  std::vector<Real> mem(64, 0.0);
  at.spawnJoin([&](sw::CpeContext& ctx) {
    auto buf = sw::ldm_malloc<Real>(ctx, 1, "v");
    buf[0] = ctx.id + 1.0;
    sw::athread_put(ctx, mem.data() + ctx.id,
                    std::span<const Real>(buf.data(), 1));
  });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(mem[static_cast<std::size_t>(i)], i + 1.0);
  EXPECT_EQ(at.cluster().dmaTotal().putTransactions, 64u);
  at.halt();
  EXPECT_FALSE(at.initialized());
}

TEST(AthreadApi, GetAndRegisterCommVerbs) {
  sw::Athread at(sw::MachineSpec::sw26010().cg);
  at.init();
  std::vector<Real> mem(8, 2.5);
  at.spawnJoin([&](sw::CpeContext& ctx) {
    if (ctx.id != 0) return;
    auto buf = sw::ldm_malloc<Real>(ctx, 8, "row");
    sw::athread_get(ctx, mem.data(), buf);
    EXPECT_EQ(buf[7], 2.5);
    // Register comm to a same-row neighbour works, RMA must not exist.
    auto remote = sw::ldm_malloc<Real>(ctx, 8, "remote");
    sw::reg_putr(ctx, 1, std::span<const Real>(buf.data(), 8), remote);
    EXPECT_EQ(remote[0], 2.5);
    EXPECT_THROW(sw::rma_put(ctx, 1, std::span<const Real>(buf.data(), 8), remote),
                 Error);
  });
}

}  // namespace
}  // namespace swlb::app
