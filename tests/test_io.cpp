// I/O layer: PPM, VTK, CSV, checkpoint/restart (including corruption
// detection and bitwise-identical restarts).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "io/checkpoint.hpp"
#include "io/csv.hpp"
#include "io/ppm.hpp"
#include "io/vtk.hpp"

namespace swlb::io {
namespace {

namespace fs = std::filesystem;

std::string tmpPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------------- PPM

TEST(Ppm, WritesValidP6Header) {
  const std::string path = tmpPath("swlb_test.ppm");
  std::vector<std::uint8_t> rgb(4 * 3 * 3, 128);
  write_ppm(path, 4, 3, rgb);
  const std::string content = slurp(path);
  EXPECT_EQ(content.rfind("P6\n4 3\n255\n", 0), 0u);
  EXPECT_EQ(content.size(), std::string("P6\n4 3\n255\n").size() + 36);
  std::remove(path.c_str());
}

TEST(Ppm, SliceAutoscalesAndColors) {
  Grid g(8, 6, 2);
  ScalarField f(g, 0);
  for (int y = 0; y < 6; ++y)
    for (int x = 0; x < 8; ++x) f(x, y, 1) = x;
  const std::string path = tmpPath("swlb_slice.ppm");
  write_ppm_slice(path, f, 1);
  const std::string content = slurp(path);
  EXPECT_EQ(content.rfind("P6\n8 6\n255\n", 0), 0u);
  std::remove(path.c_str());
}

TEST(Ppm, RejectsMismatchedBufferAndBadSlice) {
  std::vector<std::uint8_t> rgb(10);
  EXPECT_THROW(write_ppm(tmpPath("x.ppm"), 4, 3, rgb), Error);
  Grid g(4, 4, 2);
  ScalarField f(g, 0);
  EXPECT_THROW(write_ppm_slice(tmpPath("x.ppm"), f, 5), Error);
}

TEST(Ppm, VelocityMagnitudeSlice) {
  Grid g(4, 4, 1);
  VectorField u(g);
  u.set(2, 2, 0, {0.3, 0.4, 0});
  const std::string path = tmpPath("swlb_vel.ppm");
  write_ppm_velocity_slice(path, u, 0, 0.5);
  EXPECT_FALSE(slurp(path).empty());
  std::remove(path.c_str());
}

// ------------------------------------------------------------------- VTK

TEST(Vtk, StructuredPointsLayout) {
  Grid g(3, 2, 2);
  ScalarField rho(g, 1.5);
  VectorField u(g);
  u.set(1, 1, 1, {1, 2, 3});
  VtkWriter w(g, 0.5, {10, 0, 0});
  w.addScalar("density", rho);
  w.addVector("velocity", u);
  const std::string path = tmpPath("swlb_test.vtk");
  w.write(path);
  const std::string content = slurp(path);
  EXPECT_NE(content.find("DATASET STRUCTURED_POINTS"), std::string::npos);
  EXPECT_NE(content.find("DIMENSIONS 3 2 2"), std::string::npos);
  EXPECT_NE(content.find("ORIGIN 10 0 0"), std::string::npos);
  EXPECT_NE(content.find("SPACING 0.5 0.5 0.5"), std::string::npos);
  EXPECT_NE(content.find("POINT_DATA 12"), std::string::npos);
  EXPECT_NE(content.find("SCALARS density double 1"), std::string::npos);
  EXPECT_NE(content.find("VECTORS velocity double"), std::string::npos);
  EXPECT_NE(content.find("1 2 3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Vtk, RejectsGridMismatch) {
  VtkWriter w(Grid(4, 4, 4));
  ScalarField wrong(Grid(3, 3, 3), 0);
  EXPECT_THROW(w.addScalar("x", wrong), Error);
}

// ------------------------------------------------------------------- CSV

TEST(Csv, HeaderAndRows) {
  const std::string path = tmpPath("swlb_test.csv");
  {
    CsvWriter w(path, {"step", "drag", "lift"});
    w.row({1, 0.5, -0.25});
    w.row({2, 0.6, -0.20});
    EXPECT_EQ(w.rowsWritten(), 2u);
  }
  const std::string content = slurp(path);
  EXPECT_EQ(content.rfind("step,drag,lift\n", 0), 0u);
  EXPECT_NE(content.find("1,0.5,-0.25"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RejectsWidthMismatchAndEmptyHeader) {
  const std::string path = tmpPath("swlb_bad.csv");
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({1.0}), Error);
  EXPECT_THROW(CsvWriter(tmpPath("swlb_bad2.csv"), {}), Error);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ checkpoint

TEST(Checkpoint, FieldRoundTripIsBitwise) {
  Grid g(6, 5, 4);
  PopulationField f(g, 19);
  for (std::size_t i = 0; i < f.size(); ++i)
    f.data()[i] = static_cast<Real>(i) * 0.001 - 3.0;

  const std::string path = tmpPath("swlb_test.ckpt");
  save_checkpoint(path, f, 1234, 1);

  const CheckpointMeta meta = read_checkpoint_meta(path);
  EXPECT_EQ(meta.version, kCheckpointVersion);
  EXPECT_EQ(meta.steps, 1234u);
  EXPECT_EQ(meta.parity, 1);
  EXPECT_EQ(meta.interior, (Int3{6, 5, 4}));
  EXPECT_EQ(meta.q, 19);

  PopulationField back(g, 19);
  load_checkpoint(path, back);
  for (std::size_t i = 0; i < f.size(); ++i)
    ASSERT_EQ(back.data()[i], f.data()[i]);
  std::remove(path.c_str());
}

TEST(Checkpoint, SolverRestartContinuesIdentically) {
  // Run 30 steps; checkpoint at 10 and re-run 20 in a fresh solver: the
  // final states must match bit for bit.
  auto makeSolver = [] {
    CollisionConfig cfg;
    cfg.omega = 1.3;
    Solver<D3Q19> s(Grid(8, 8, 4), cfg, Periodicity{true, true, true});
    s.finalizeMask();
    s.initField([](int x, int y, int z, Real& rho, Vec3& u) {
      rho = 1.0 + 0.005 * ((x + y + z) % 5);
      u = {0.01 * (x % 3), -0.01 * (y % 2), 0.005 * (z % 2)};
    });
    return s;
  };

  Solver<D3Q19> reference = makeSolver();
  reference.run(30);

  const std::string path = tmpPath("swlb_restart.ckpt");
  Solver<D3Q19> first = makeSolver();
  first.run(10);
  save_checkpoint(path, first);

  Solver<D3Q19> resumed = makeSolver();
  load_checkpoint(path, resumed);
  EXPECT_EQ(resumed.stepsDone(), 10u);
  resumed.run(20);

  const PopulationField& a = reference.f();
  const PopulationField& b = resumed.f();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a.data()[i], b.data()[i]);
  std::remove(path.c_str());
}

TEST(Checkpoint, IdenticalStateProducesByteIdenticalFiles) {
  // The header struct is zeroed before filling, so any ABI padding is
  // written as deterministic bytes: saving the same state twice must give
  // byte-identical files (required for dedup/content-addressed storage).
  Grid g(5, 4, 3);
  PopulationField f(g, 19);
  for (std::size_t i = 0; i < f.size(); ++i)
    f.data()[i] = std::sin(static_cast<Real>(i));

  const std::string pathA = tmpPath("swlb_dup_a.ckpt");
  const std::string pathB = tmpPath("swlb_dup_b.ckpt");
  save_checkpoint(pathA, f, 77, 1);
  save_checkpoint(pathB, f, 77, 1);
  const std::string a = slurp(pathA);
  const std::string b = slurp(pathB);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  std::remove(pathA.c_str());
  std::remove(pathB.c_str());
}

TEST(Checkpoint, DetectsCorruption) {
  Grid g(4, 4, 4);
  PopulationField f(g, 19);
  f.fill(0.25);
  const std::string path = tmpPath("swlb_corrupt.ckpt");
  save_checkpoint(path, f, 1, 0);
  // Flip one payload byte.
  {
    std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(-9, std::ios::end);
    char c;
    io.read(&c, 1);
    io.seekp(-9, std::ios::end);
    c = static_cast<char>(c ^ 0x40);
    io.write(&c, 1);
  }
  PopulationField back(g, 19);
  EXPECT_THROW(load_checkpoint(path, back), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGeometryMismatchAndBadFiles) {
  Grid g(4, 4, 4);
  PopulationField f(g, 19);
  const std::string path = tmpPath("swlb_geom.ckpt");
  save_checkpoint(path, f, 5, 0);

  PopulationField wrongGrid(Grid(5, 4, 4), 19);
  EXPECT_THROW(load_checkpoint(path, wrongGrid), Error);
  PopulationField wrongQ(g, 15);
  EXPECT_THROW(load_checkpoint(path, wrongQ), Error);
  EXPECT_THROW(read_checkpoint_meta(tmpPath("swlb_missing.ckpt")), Error);

  // Bad magic.
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOTACKPTFILE----------------------------------------";
  }
  EXPECT_THROW(read_checkpoint_meta(path), Error);
  std::remove(path.c_str());
}

/// A 6x5x4 periodic D3Q19 solver on `backend`, `steps` steps in.
Solver<D3Q19> steppedSolver(const std::string& backend, int steps) {
  CollisionConfig cfg;
  cfg.omega = 1.3;
  Solver<D3Q19> s(Grid(6, 5, 4), cfg, Periodicity{true, true, true});
  s.setBackend(backend);
  s.finalizeMask();
  s.initUniform(1.0, {0.01, 0, 0});
  s.run(static_cast<std::uint64_t>(steps));
  return s;
}

/// Overwrite the header field at byte `offset` of the file at `path`.
template <class T>
void patchHeader(const std::string& path, std::streamoff offset, T value) {
  std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
  io.seekp(offset);
  io.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

TEST(Checkpoint, RejectedRestoreLeavesSolverUnchanged) {
  // Every header check runs before the solver changes: a rejected file
  // throws swlb::Error (never bad_alloc, never a read past the A-B pair)
  // and leaves steps and parity as they were.  Header layout: parity at
  // byte 32, payloadBytes at byte 48.
  const std::string path = tmpPath("swlb_rejected.ckpt");
  struct Case {
    const char* what;
    const char* backend;
    std::function<void()> corrupt;
  };
  const Case cases[] = {
      {"parity 5", "fused", [&] { patchHeader<std::int32_t>(path, 32, 5); }},
      {"parity 1 into an in-place backend", "esoteric", [] {}},
      {"payloadBytes 2^62", "fused",
       [&] { patchHeader<std::uint64_t>(path, 48, std::uint64_t{1} << 62); }},
      {"truncated payload", "fused",
       [&] { fs::resize_file(path, fs::file_size(path) - 64); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    save_checkpoint(path, steppedSolver("fused", 1));  // step 1, parity 1
    c.corrupt();
    Solver<D3Q19> target = steppedSolver(c.backend, 2);
    EXPECT_THROW(load_checkpoint(path, target), Error);
    EXPECT_EQ(target.stepsDone(), 2u);
    EXPECT_EQ(target.parity(), 0);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, InPlaceOddPhaseIsNotSaved) {
  // After an odd step an in-place solver holds the rotated layout, which
  // restore refuses; the save throws before it writes anything, and the
  // next (even) step saves and restores bit for bit.
  const std::string path = tmpPath("swlb_inplace_odd.ckpt");
  std::remove(path.c_str());
  Solver<D3Q19> s = steppedSolver("esoteric", 3);
  EXPECT_THROW(save_checkpoint(path, s), Error);
  EXPECT_FALSE(fs::exists(path));
  s.step();
  save_checkpoint(path, s);
  Solver<D3Q19> back = steppedSolver("esoteric", 0);
  load_checkpoint(path, back);
  EXPECT_EQ(back.stepsDone(), 4u);
  for (int i = 0; i < D3Q19::Q; ++i)
    EXPECT_EQ(back.population(i, 2, 3, 1), s.population(i, 2, 3, 1)) << i;
  std::remove(path.c_str());
}

TEST(Checkpoint, Fnv1aKnownVector) {
  // FNV-1a("") = offset basis; FNV-1a("a") = 0xaf63dc4c8601ec8c.
  EXPECT_EQ(fnv1a("", 0), 14695981039346656037ull);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace swlb::io
