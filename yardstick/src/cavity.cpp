// cavity_bulk: one big lid-driven cavity on the host thread team.  Each
// population lattice is several times the host's L2 + L3, so the kernel
// streams from DRAM every step: this is the paper's bandwidth-fraction
// workload, and runtime, serve and io sit idle in it.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "app/cases.hpp"
#include "obs/context.hpp"
#include "yardstick.hpp"

namespace yardstick {

namespace {

using swlb::D3Q19;
using CavitySolver = swlb::Solver<D3Q19>;

constexpr std::uint64_t kHashStep = 3;  ///< steps from init to the hashed state
constexpr std::size_t kMinSamples = 100;  ///< p90 keeps 10 samples beyond it
/// Read + write of every population per cell update (mask and
/// write-allocate traffic not counted): the computed bytes per LUP.
constexpr double kBytesPerLup = 2.0 * D3Q19::Q * sizeof(swlb::Real);

std::uint64_t stateHash(const CavitySolver& s) {
  return wordHash(s.f().data(), s.f().bytes());
}

/// Fluid mass with a compensated (Neumaier) sum: a plain sum over 3.4 M
/// cells rounds by ~1e-9 relative, ten times the drift bound.
double fluidMass(const CavitySolver& s) {
  const swlb::Grid& g = s.grid();
  double sum = 0, carry = 0;
  for (int z = 0; z < g.nz; ++z)
    for (int y = 0; y < g.ny; ++y)
      for (int x = 0; x < g.nx; ++x) {
        if (s.mask()(x, y, z) != swlb::MaterialTable::kFluid) continue;
        for (int i = 0; i < D3Q19::Q; ++i) {
          const double v = s.f()(i, x, y, z);
          const double t = sum + v;
          carry += std::abs(sum) >= std::abs(v) ? (sum - t) + v : (v - t) + sum;
          sum = t;
        }
      }
  return sum + carry;
}

struct Pass {
  std::vector<double> stepSeconds;
  std::uint64_t hashAtK = 0;
};

/// Step until `seconds` elapsed and at least `minSteps` were timed; hash
/// the state when it reaches kHashStep steps from init.
Pass timedSteps(CavitySolver& s, double seconds, std::size_t minSteps,
                SpanLog* spans) {
  Pass p;
  const auto t0 = Clock::now();
  const double cap = 4 * seconds + 30;
  while ((since(t0) < seconds || p.stepSeconds.size() < minSteps) &&
         since(t0) < cap) {
    const auto ts = Clock::now();
    {
      SpanLog::Scope iter(spans, 0, "iter", "bench");
      SpanLog::Scope step(spans, 0, "Solver::step", "core");
      s.step();
    }
    p.stepSeconds.push_back(since(ts));
    if (s.stepsDone() == kHashStep) p.hashAtK = stateHash(s);
  }
  return p;
}

}  // namespace

void runCavityBulk(const Options& o, Report& r) {
  const int n = o.smoke ? 24 : 150;
  const std::size_t minSteps = o.smoke ? kHashStep + 1 : kMinSamples;
  swlb::app::Config cfg;
  cfg.set("case", "cavity");
  for (const char* k : {"nx", "ny", "nz"}) cfg.set(k, std::to_string(n));
  cfg.set("omega", "1.6");
  cfg.set("lid_velocity", "0.05");
  const double cells = static_cast<double>(n) * n * n;

  if (o.trace) probeHostBandwidth(o, r);

  // Set-up: build the case, pick the team size, run one warm-up step
  // (thread start-up and first-touch stay out of the timed steps).
  // Untraced runs set up three times and report the median.
  const int setups = o.smoke || o.trace ? 1 : 3;
  const double beforeSetup = since(processStart());
  std::vector<double> setupSeconds, buildSeconds;
  std::unique_ptr<CavitySolver> solver;
  for (int i = 0; i < setups; ++i) {
    solver.reset();
    const auto t0 = Clock::now();
    swlb::app::Case c = swlb::app::build_case(cfg);
    buildSeconds.push_back(since(t0));
    solver = std::move(c.solver);
    solver->setHostThreads(o.nproc);
    solver->step();
    setupSeconds.push_back(since(t0));
  }
  CavitySolver& s = *solver;
  // Taken after the warm-up step, so the check covers every timed step.
  const double mass0 = fluidMass(s);

  char grid[160];
  std::snprintf(grid, sizeof(grid),
                "%d^3 D3Q19 f64, fused, %d threads, %.0f MB per lattice",
                n, o.nproc, static_cast<double>(s.f().bytes()) / 1e6);
  r.note("cavity", grid);

  Pass main;
  if (!o.trace) {
    main = timedSteps(s, o.seconds, minSteps, nullptr);
    reportSteps(r, main.stepSeconds, cells);
    r.set("setup_s", beforeSetup + median(setupSeconds), "s");
  } else {
    // Untraced half first (the overhead baseline), then the traced half
    // with the program's phase histograms and the benchmark's spans on.
    main = timedSteps(s, o.seconds / 2, minSteps / 2, nullptr);
    swlb::obs::MetricsRegistry reg;
    SpanLog spans(1);
    Pass traced;
    {
      swlb::obs::ScopedBind bind(nullptr, &reg, 0);
      traced = timedSteps(s, o.seconds / 2, minSteps / 2, &spans);
    }
    const PhaseTotals ph = PhaseTotals::of(reg);
    const double stepMs = median(traced.stepSeconds) * 1e3;
    r.set("core.step_ms", stepMs, "ms");
    r.set("core.kernel_ms",
          ph.sec("compute.kernel") / std::max<double>(1, ph.n("compute.kernel")) *
              1e3, "ms");
    r.set("core.bytes_per_lup", kBytesPerLup, "B");
    r.note("core.bytes_per_lup", "computed: 2 x Q x 8 B, mask and "
                                 "write-allocate traffic not counted");
    const double gbs = cells * kBytesPerLup / (stepMs * 1e-3) / 1e9;
    r.set("core.achieved_gbs", gbs, "GB/s");
    r.set("core.bw_fraction", gbs / r.get("host.triad_gbs_nt"), "frac");
    r.set("obs.trace_overhead_frac",
          stepMs / (median(main.stepSeconds) * 1e3) - 1, "frac");
    r.set("app.build_case_ms.cavity", median(buildSeconds) * 1e3, "ms");
    const auto self = spans.selfTimes("iter");
    reportBreakdown(r, o, {{"core", self.count("core") ? self.at("core") : 0}},
                    self.count("total") ? self.at("total") : 0, 0.05);
    spans.write(o.outDir + "/spans_cavity_bulk.json");
  }
  r.attempted = main.stepSeconds.size();

  // ---- output checks -----------------------------------------------------
  const int c = n / 2;
  if (o.corrupt == "finite")
    s.f()(0, c, c, c) = std::numeric_limits<swlb::Real>::quiet_NaN();
  bool finite = true;
  for (std::size_t i = 0; i < s.f().size() && finite; ++i)
    finite = std::isfinite(s.f().data()[i]);
  r.check("finite", finite, "every population of every cell");

  if (o.corrupt == "mass") s.f()(0, c, c, c) += 1e-3;
  const double drift = std::abs(fluidMass(s) - mass0) / mass0;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "relative drift %.3g <= 1e-10 after %llu steps",
                drift, static_cast<unsigned long long>(s.stepsDone()));
  r.check("mass", drift <= 1e-10, buf);

  // The same problem on one thread: the single-thread baseline, and the
  // reference state (thread count must not change a bit).
  s.initUniform(1.0, {0, 0, 0});
  s.restoreState(0, 0);
  s.setHostThreads(1);
  std::vector<double> oneThread;
  std::uint64_t hash1 = 0;
  const std::uint64_t steps1 = o.trace && !o.smoke ? kHashStep + 2 : kHashStep;
  while (s.stepsDone() < steps1) {
    const auto ts = Clock::now();
    s.step();
    oneThread.push_back(since(ts));
    if (s.stepsDone() == kHashStep) hash1 = stateHash(s);
  }
  const std::uint64_t expected =
      o.corrupt == "hash_threads" ? ~main.hashAtK : main.hashAtK;
  std::snprintf(buf, sizeof(buf), "%d threads %016llx vs 1 thread %016llx",
                o.nproc, static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(hash1));
  r.check("hash_threads", hash1 == expected, buf);

  if (o.trace) {
    const double oneMs = median(oneThread) * 1e3;
    r.set("core.step_1t_ms", oneMs, "ms");
    r.set("core.thread_speedup", oneMs / r.get("core.step_ms"), "ratio");
    r.set("core.bw_fraction_1t",
          cells * kBytesPerLup / (oneMs * 1e-3) / 1e9 /
              r.get("host.triad_gbs_1t"), "frac");
  } else {
    r.set("peak_rss_mb", peakRssMb(), "MB");
  }
}

}  // namespace yardstick
