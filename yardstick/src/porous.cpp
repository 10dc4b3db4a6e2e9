// porous_ranks: a periodic, body-force-driven porous block on 4 ranks of
// runtime::World in the default Overlap halo mode.  Seeded solid blocks
// grow denser along x, so the automatic 2x2 split leaves the ranks uneven
// in fluid cells; the blocks per rank are small, so halo post, finish and
// frontier work are a real share of a step, and the slowest rank sets
// the step time.  The kernel runs on one thread per rank.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "runtime/distributed_solver.hpp"
#include "yardstick.hpp"

namespace yardstick {

namespace {

using swlb::Box3;
using swlb::D3Q19;
using swlb::Int3;
using swlb::MaterialTable;
using swlb::Real;
using Ranked = swlb::runtime::DistributedSolver<D3Q19>;

constexpr int kRanks = 4;
constexpr std::uint64_t kHashStep = 12;  ///< steps from init to the hashed state
constexpr std::size_t kMinSamples = 100;
constexpr double kSolidTarget = 0.25;

struct Porous {
  Int3 global;
  std::vector<Box3> blocks;
  std::vector<std::uint8_t> solid;  ///< global x-fastest solid flags
  double solidFraction = 0;
};

/// Seeded solid blocks, 2..6 cells a side, whose x position has a density
/// growing linearly along x; added until a quarter of the cells are solid.
Porous makePorous(const Int3& g, std::uint64_t seed) {
  Porous p;
  p.global = g;
  p.solid.assign(static_cast<std::size_t>(g.x) * g.y * g.z, 0);
  SplitMix rng{seed};
  std::size_t solidCells = 0;
  const std::size_t target = static_cast<std::size_t>(
      kSolidTarget * static_cast<double>(p.solid.size()));
  while (solidCells < target) {
    const Int3 size{rng.range(2, 6), rng.range(2, 6), rng.range(2, 6)};
    const int x = std::min(g.x - size.x,
                           static_cast<int>(g.x * std::sqrt(rng.uniform())));
    const Int3 lo{x, rng.range(0, g.y - size.y), rng.range(0, g.z - size.z)};
    const Box3 b{lo, {lo.x + size.x, lo.y + size.y, lo.z + size.z}};
    p.blocks.push_back(b);
    for (int z = b.lo.z; z < b.hi.z; ++z)
      for (int y = b.lo.y; y < b.hi.y; ++y)
        for (int xx = b.lo.x; xx < b.hi.x; ++xx) {
          auto& c = p.solid[(static_cast<std::size_t>(z) * g.y + y) * g.x + xx];
          solidCells += c == 0;
          c = 1;
        }
  }
  p.solidFraction =
      static_cast<double>(solidCells) / static_cast<double>(p.solid.size());
  return p;
}

swlb::CollisionConfig collision() {
  swlb::CollisionConfig col;
  col.omega = 1.2;
  col.bodyForce = {2e-6, 0, 0};
  return col;
}

std::uint64_t fieldHash(const swlb::PopulationField& f) {
  return wordHash(f.data(), f.bytes());
}

/// What one pass over the ranked solver leaves behind.  Per-rank vectors
/// are written by their rank thread only and read after World::run.
struct PassResult {
  std::vector<double> iterSeconds;  ///< rank 0, barrier to barrier
  std::vector<std::vector<double>> stepSeconds =
      std::vector<std::vector<double>>(kRanks);
  std::vector<swlb::obs::MetricsRegistry> phases =
      std::vector<swlb::obs::MetricsRegistry>(kRanks);
  std::vector<std::uint64_t> haloMessages = std::vector<std::uint64_t>(kRanks);
  std::vector<std::uint64_t> haloBytes = std::vector<std::uint64_t>(kRanks);
  std::vector<std::uint64_t> fluidCells = std::vector<std::uint64_t>(kRanks);
  std::vector<double> setupSeconds;
  std::uint64_t hashAtK = 0;
  std::uint64_t steps = 0;  ///< timed steps
  double mass0 = 0, mass1 = 0;
  bool finite = true;
};

struct PassConfig {
  int setups = 1;
  double seconds = 0;  ///< 0: stop at kHashStep
  std::size_t minSteps = 0;
  bool traced = false;
  std::string corrupt;
};

PassResult runPass(const Porous& p, const PassConfig& pc, SpanLog* spans) {
  PassResult out;
  swlb::runtime::World world(kRanks);
  world.run([&](swlb::runtime::Comm& comm) {
    const int rank = comm.rank();
    swlb::obs::ScopedBind bind(
        nullptr, pc.traced ? &out.phases[static_cast<std::size_t>(rank)] : nullptr,
        rank);
    Ranked::Config cfg;
    cfg.global = p.global;
    cfg.collision = collision();
    cfg.periodic = {true, true, true};
    std::unique_ptr<Ranked> ds;
    for (int i = 0; i < pc.setups; ++i) {
      ds.reset();
      comm.barrier();
      const auto t0 = Clock::now();
      ds = std::make_unique<Ranked>(comm, cfg);
      for (const Box3& b : p.blocks) ds->paintGlobal(b, MaterialTable::kSolid);
      ds->finalizeMask();
      ds->initUniform(1.0, {0, 0, 0});
      ds->step();  // warm-up: first-touch and message buffers
      comm.barrier();
      if (rank == 0) out.setupSeconds.push_back(since(t0));
    }
    Ranked& s = *ds;
    const Box3 own = s.ownedBox();
    std::uint64_t fluid = 0;
    for (int z = 0; z < own.hi.z - own.lo.z; ++z)
      for (int y = 0; y < own.hi.y - own.lo.y; ++y)
        for (int x = 0; x < own.hi.x - own.lo.x; ++x)
          fluid += s.mask()(x, y, z) == MaterialTable::kFluid;
    out.fluidCells[static_cast<std::size_t>(rank)] = fluid;
    const double mass0 = static_cast<double>(s.globalMass());

    // Rank 0 decides when the run ends; the allreduce that tells every
    // rank is also the barrier that ends each iteration.
    auto& mine = out.stepSeconds[static_cast<std::size_t>(rank)];
    std::uint64_t steps = 0;
    comm.barrier();
    const auto tStart = Clock::now();
    auto tPrev = tStart;
    for (bool more = true; more;) {
      {
        SpanLog::Scope iter(spans, rank, "iter", "bench");
        const auto ts = Clock::now();
        const swlb::runtime::CommStats before = comm.stats();
        {
          SpanLog::Scope step(spans, rank, "DistributedSolver::step", "runtime");
          s.step();
        }
        mine.push_back(since(ts));
        out.haloMessages[static_cast<std::size_t>(rank)] +=
            comm.stats().messagesSent - before.messagesSent;
        out.haloBytes[static_cast<std::size_t>(rank)] +=
            comm.stats().bytesSent - before.bytesSent;
        ++steps;
        const double elapsed = since(tStart);
        const bool want = s.stepsDone() < kHashStep ||
                          ((elapsed < pc.seconds || steps < pc.minSteps) &&
                           elapsed < 4 * pc.seconds + 30);
        SpanLog::Scope barrier(spans, rank, "Comm::allreduce", "runtime");
        more = comm.allreduce(rank == 0 && want ? 1.0 : 0.0,
                              swlb::runtime::Comm::Op::Max) > 0;
      }
      const auto t = Clock::now();
      if (rank == 0)
        out.iterSeconds.push_back(std::chrono::duration<double>(t - tPrev).count());
      tPrev = t;
      if (s.stepsDone() == kHashStep) {
        swlb::PopulationField all = s.gatherPopulations(0);
        if (rank == 0) out.hashAtK = fieldHash(all);
        comm.barrier();
        tPrev = Clock::now();
      }
    }

    // Output checks need the state as the last step left it.
    const Int3 cell = [&] {
      for (int z = 0; z < own.hi.z - own.lo.z; ++z)
        for (int y = 0; y < own.hi.y - own.lo.y; ++y)
          for (int x = 0; x < own.hi.x - own.lo.x; ++x)
            if (s.mask()(x, y, z) == MaterialTable::kFluid) return Int3{x, y, z};
      return Int3{0, 0, 0};
    }();
    if (rank == 0 && pc.corrupt == "finite")
      s.f()(0, cell.x, cell.y, cell.z) = std::numeric_limits<Real>::quiet_NaN();
    const bool finite = comm.allreduce(s.populationsFinite() ? 1.0 : 0.0,
                                       swlb::runtime::Comm::Op::Min) > 0;
    if (rank == 0 && pc.corrupt == "mass") s.f()(0, cell.x, cell.y, cell.z) += 1e-3;
    const double mass1 = static_cast<double>(s.globalMass());
    if (rank == 0) {
      out.steps = steps;
      out.mass0 = mass0;
      out.mass1 = mass1;
      out.finite = finite;
    }
  });
  return out;
}

/// The same problem on a single-rank Solver, one thread: the plain
/// baseline, and the monolithic reference state.
std::uint64_t monolithic(const Porous& p, std::vector<double>& stepSeconds) {
  swlb::Solver<D3Q19> s(swlb::Grid(p.global.x, p.global.y, p.global.z),
                        collision(), {true, true, true});
  for (const Box3& b : p.blocks) s.paint(b, MaterialTable::kSolid);
  s.finalizeMask();
  s.initUniform(1.0, {0, 0, 0});
  while (s.stepsDone() < kHashStep) {
    const auto t0 = Clock::now();
    s.step();
    stepSeconds.push_back(since(t0));
  }
  swlb::PopulationField all(s.grid(), D3Q19::Q);
  for (int q = 0; q < D3Q19::Q; ++q)
    for (int z = 0; z < p.global.z; ++z)
      for (int y = 0; y < p.global.y; ++y)
        for (int x = 0; x < p.global.x; ++x) all(q, x, y, z) = s.f()(q, x, y, z);
  return fieldHash(all);
}

void checkState(Report& r, const PassResult& pass) {
  r.check("finite", pass.finite, "every interior population on every rank");
  const double drift = std::abs(pass.mass1 - pass.mass0) / pass.mass0;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "relative drift %.3g <= 1e-10", drift);
  r.check("mass", drift <= 1e-10, buf);
}

void checkHash(Report& r, const Options& o, const char* what,
               std::uint64_t expected, std::uint64_t got) {
  if (o.corrupt == "hash_passes") expected = ~expected;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s: %016llx vs %016llx", what,
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(got));
  r.check("hash_passes", expected == got, buf);
}

}  // namespace

void runPorousRanks(const Options& o, Report& r) {
  const Int3 global = o.smoke ? Int3{32, 32, 16} : Int3{64, 64, 32};
  const double beforeSetup = since(processStart());
  const Porous p = makePorous(global, o.seed);
  const std::size_t minSteps = o.smoke ? 1 : kMinSamples;
  const double cells = static_cast<double>(global.x) * global.y * global.z;

  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%dx%dx%d periodic, body force x, %d ranks Overlap, %zu "
                "blocks, solid fraction %.4f",
                global.x, global.y, global.z, kRanks, p.blocks.size(),
                p.solidFraction);
  r.note("porous", buf);

  PassConfig timed;
  timed.setups = o.smoke || o.trace ? 1 : 5;
  timed.seconds = o.trace ? o.seconds / 2 : o.seconds;
  timed.minSteps = o.trace ? minSteps / 2 : minSteps;
  timed.corrupt = o.corrupt;
  const PassResult untraced = runPass(p, timed, nullptr);
  checkState(r, untraced);
  r.attempted = untraced.steps;

  std::vector<std::uint64_t> fluid = untraced.fluidCells;
  const double fluidMean =
      static_cast<double>(fluid[0] + fluid[1] + fluid[2] + fluid[3]) / kRanks;
  const double fluidImbalance =
      static_cast<double>(*std::max_element(fluid.begin(), fluid.end())) /
      fluidMean;
  std::snprintf(buf, sizeof(buf),
                "solid fraction %.4f, fluid cells per rank %llu %llu %llu "
                "%llu, fluid imbalance %.4f",
                p.solidFraction, static_cast<unsigned long long>(fluid[0]),
                static_cast<unsigned long long>(fluid[1]),
                static_cast<unsigned long long>(fluid[2]),
                static_cast<unsigned long long>(fluid[3]), fluidImbalance);
  r.note("inputs", buf);

  // A traced pass from the same initial state must reach the same bits.
  PassConfig tracedCfg;
  tracedCfg.traced = true;
  if (o.trace) {
    tracedCfg.seconds = o.seconds / 2;
    tracedCfg.minSteps = minSteps / 2;
  }
  SpanLog spans(kRanks);
  const PassResult traced = runPass(p, tracedCfg, &spans);
  checkHash(r, o, "untraced vs traced pass", untraced.hashAtK, traced.hashAtK);

  if (!o.trace) {
    reportSteps(r, untraced.iterSeconds, cells);
    r.set("setup_s", beforeSetup + median(untraced.setupSeconds), "s");
    r.set("peak_rss_mb", peakRssMb(), "MB");
    return;
  }

  checkState(r, traced);
  std::vector<double> oneThread;
  checkHash(r, o, "ranked vs single-rank solver", untraced.hashAtK,
            monolithic(p, oneThread));
  r.set("core.step_1t_ms", median(oneThread) * 1e3, "ms");

  // Slowest rank per step, then the median over steps.
  std::vector<double> slowest(traced.stepSeconds[0].size(), 0);
  for (const auto& rankSteps : traced.stepSeconds)
    for (std::size_t i = 0; i < slowest.size(); ++i)
      slowest[i] = std::max(slowest[i], rankSteps[i]);
  r.set("runtime.step_ms", median(slowest) * 1e3, "ms");

  const double rankSteps = static_cast<double>(traced.steps) * kRanks;
  double post = 0, finish = 0, interior = 0, frontier = 0, stepTotal = 0;
  double computeMax = 0, computeSum = 0;
  std::uint64_t messages = 0, bytes = 0;
  for (int rk = 0; rk < kRanks; ++rk) {
    const PhaseTotals ph = PhaseTotals::of(traced.phases[static_cast<std::size_t>(rk)]);
    post += ph.sec("halo.post");
    finish += ph.sec("halo.finish");
    interior += ph.sec("compute.interior");
    frontier += ph.sec("compute.frontier");
    stepTotal += ph.sec("step");
    const double compute = ph.sec("compute.interior") + ph.sec("compute.frontier");
    computeMax = std::max(computeMax, compute);
    computeSum += compute;
    messages += traced.haloMessages[static_cast<std::size_t>(rk)];
    bytes += traced.haloBytes[static_cast<std::size_t>(rk)];
  }
  r.set("runtime.halo_post_ms", post / rankSteps * 1e3, "ms");
  r.set("runtime.halo_finish_ms", finish / rankSteps * 1e3, "ms");
  r.set("runtime.compute_interior_ms", interior / rankSteps * 1e3, "ms");
  r.set("runtime.compute_frontier_ms", frontier / rankSteps * 1e3, "ms");
  r.set("runtime.wait_frac", finish / stepTotal, "frac");
  r.set("runtime.messages_per_step",
        static_cast<double>(messages) / static_cast<double>(traced.steps), "count");
  r.set("runtime.bytes_per_step",
        static_cast<double>(bytes) / static_cast<double>(traced.steps), "B");
  r.set("runtime.rank_imbalance", computeMax / (computeSum / kRanks), "ratio");
  r.set("runtime.fluid_imbalance", fluidImbalance, "ratio");
  r.set("obs.trace_overhead_frac",
        median(traced.iterSeconds) / median(untraced.iterSeconds) - 1, "frac");

  // Layer self time over every rank's iterations: the step and allreduce
  // spans are runtime, less the kernel time the program's compute phase
  // histograms attribute to core.
  const auto self = spans.selfTimes("iter");
  const double runtimeSelf = self.count("runtime") ? self.at("runtime") : 0;
  reportBreakdown(r, o,
                  {{"core", interior + frontier},
                   {"runtime", runtimeSelf - interior - frontier}},
                  self.count("total") ? self.at("total") : 0, 0.05);
  spans.write(o.outDir + "/spans_porous_ranks.json");
}

}  // namespace yardstick
