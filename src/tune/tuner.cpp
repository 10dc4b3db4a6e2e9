#include "tune/tuner.hpp"

#include <sstream>

#include "core/backend.hpp"
#include "core/lattice.hpp"
#include "core/precision.hpp"
#include "core/solver.hpp"
#include "obs/context.hpp"
#include "perf/cost_model.hpp"
#include "perf/network.hpp"
#include "runtime/decomposition.hpp"
#include "sw/spec.hpp"

namespace swlb::tune {

namespace {

/// Overlap is selected when the modeled exchange exceeds this fraction of
/// the modeled step (compute + exchange): the overlap scheme's frontier
/// pass is not free, so negligible communication keeps the simpler
/// schedule.
constexpr double kOverlapMinHaloFraction = 0.01;

/// Backend trials run on a proxy block of at most this many cells.
constexpr std::size_t kTrialCells = 32768;

std::size_t elemBytesOf(const std::string& precision) {
  if (precision == "f64") return sizeof(double);
  if (precision == "f32") return sizeof(float);
  if (precision == "f16") return sizeof(f16);
  throw Error("Tuner: unknown precision \"" + precision + "\"");
}

int qOf(const std::string& lattice) {
  if (lattice == "D3Q19") return D3Q19::Q;
  if (lattice == "D2Q9") return D2Q9::Q;
  throw Error("Tuner: unknown lattice \"" + lattice + "\" (D3Q19 | D2Q9)");
}

// ---- wall-clock backend trials -----------------------------------------
// Single-rank proxy runs of the registered host backends.  Evidence +
// pick; not deterministic — guarded by backendTrialSteps > 0 (the plan's
// default stays "fused").

template <class D, class S>
double backendTrial(const std::string& name, const Int3& extent, int steps) {
  obs::TraceScope scope("tune.trial.backend");
  const Grid g(extent.x, extent.y, extent.z);
  Solver<D, S> solver(g, CollisionConfig{}, Periodicity{true, true, true});
  solver.collision().omega = 1.5;
  solver.setBackend(name);
  solver.finalizeMask();
  solver.initUniform(1.0, {0.02, 0, 0});
  solver.run(2);  // warm-up
  const double mlups = solver.runMeasured(static_cast<std::uint64_t>(steps));
  obs::count("tune.trials.backend");
  return mlups;
}

double runBackendTrial(const TuningInput& in, const std::string& name,
                       const Int3& extent, int steps) {
  const bool d3 = in.lattice == "D3Q19";
  if (in.precision == "f64")
    return d3 ? backendTrial<D3Q19, double>(name, extent, steps)
              : backendTrial<D2Q9, double>(name, extent, steps);
  if (in.precision == "f32")
    return d3 ? backendTrial<D3Q19, float>(name, extent, steps)
              : backendTrial<D2Q9, float>(name, extent, steps);
  return d3 ? backendTrial<D3Q19, f16>(name, extent, steps)
            : backendTrial<D2Q9, f16>(name, extent, steps);
}

/// Catalog index of a backend name (gauge encoding; -1 when unknown).
double backendGaugeValue(const std::string& name) {
  const auto& catalog = backend_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i)
    if (catalog[i].name == name) return static_cast<double>(i);
  return -1;
}

/// Shrink the domain until it is at most kTrialCells cells, halving the
/// largest axis (deterministic; aspect roughly kept).
Int3 proxyExtent(Int3 e) {
  while (static_cast<std::size_t>(e.x) * e.y * e.z > kTrialCells) {
    int* largest = &e.x;
    if (e.y > *largest) largest = &e.y;
    if (e.z > *largest) largest = &e.z;
    if (*largest <= 8) break;
    *largest /= 2;
  }
  return e;
}

}  // namespace

TuningPlan Tuner::plan(const TuningInput& in) const {
  obs::TraceScope scope("tune.search");
  if (in.extent.x <= 0 || in.extent.y <= 0 || in.extent.z <= 0)
    throw Error("Tuner: extent must be positive in every axis");
  if (in.ranks < 1) throw Error("Tuner: ranks must be >= 1");
  const int q = qOf(in.lattice);
  const std::size_t elem = elemBytesOf(in.precision);
  const sw::MachineSpec machine = sw::MachineSpec::sw26010();

  TuningPlan plan;
  plan.precision = in.precision;

  // ---- halo scheduling: modeled compute vs communication ---------------
  const Int3 procGrid = runtime::Decomposition::choose(in.ranks, in.extent);
  const runtime::Decomposition decomp(in.extent, procGrid);
  const Int3 local = decomp.localSize(0);
  const Grid localGrid(local.x, local.y, local.z);
  const runtime::HaloPlan halo(decomp, 0, Periodicity{true, true, true},
                               localGrid);
  const std::size_t haloBytes = halo.bytesPerExchange(q, elem);
  const int haloMessages = halo.neighborCount();

  perf::LbmCostModel cost;
  cost.q = q;
  cost.bytesPerValue = static_cast<int>(elem);
  const double cellsPerRank = static_cast<double>(localGrid.interiorVolume());
  const double computeS =
      cellsPerRank * cost.bytesPerLup() / machine.cg.dma.peakBandwidth;
  const perf::NetworkModel net(machine.net, machine.coreGroupsPerProcessor);
  const double haloS =
      in.ranks > 1 ? net.haloExchangeSeconds(haloBytes, haloMessages, in.ranks)
                   : 0.0;
  const double haloFraction =
      computeS + haloS > 0 ? haloS / (computeS + haloS) : 0.0;
  plan.haloMode = (in.ranks > 1 && haloFraction > kOverlapMinHaloFraction)
                      ? runtime::HaloMode::Overlap
                      : runtime::HaloMode::Sequential;
  plan.evidence["model.compute_s_per_step"] = computeS;
  plan.evidence["model.halo.bytes"] = static_cast<double>(haloBytes);
  plan.evidence["model.halo.messages"] = haloMessages;
  plan.evidence["model.halo.exchange_s"] = haloS;
  plan.evidence["model.halo.fraction"] = haloFraction;

  // ---- storage precision (advisory only) -------------------------------
  plan.evidence["model.bytes_per_lup"] = cost.bytesPerLup();
  if (in.precision == "f64") {
    plan.advisedQuantError = StorageTraits<float>::kEpsilon;
    plan.precisionAdvice =
        "f32 storage would halve streamed/halo/checkpoint/DMA bytes "
        "(deviation quantization ~6.0e-08, Ghia-validated); f16 quarters "
        "them but is exploratory only. Precision is never switched "
        "automatically.";
  } else if (in.precision == "f32") {
    plan.advisedQuantError = StorageTraits<float>::kEpsilon;
    plan.precisionAdvice =
        "f32 storage active (~2x traffic reduction vs f64). Use f64 for "
        "bit-exact reproduction; f16 is exploratory only.";
  } else {
    plan.advisedQuantError = StorageTraits<f16>::kEpsilon;
    plan.precisionAdvice =
        "f16 storage active: exploratory (deviation quantization ~4.9e-04)."
        " Use f32 or f64 for production accuracy.";
  }

  // ---- host backend: wall-clock trial ladder ---------------------------
  // The registered host ladder (fused, esoteric) on a single-rank proxy
  // block at the solver's default one host thread.  The pick is
  // MLUPS-argmax with ties (within 1%) kept on "fused"; without trials
  // the default "fused" stands, keeping plan() deterministic.
  if (cfg_.backendTrialSteps > 0) {
    Int3 proxy = proxyExtent(in.extent);
    if (in.lattice == "D2Q9") proxy.z = 1;
    const char* ladder[] = {"fused", "esoteric"};
    double fusedMlups = 0, pickMlups = 0;
    for (const char* name : ladder) {
      const double mlups =
          runBackendTrial(in, name, proxy, cfg_.backendTrialSteps);
      plan.evidence[std::string("trial.backend.") + name + "_mlups"] = mlups;
      if (std::string(name) == "fused") {
        fusedMlups = pickMlups = mlups;
      } else if (mlups > pickMlups && mlups > fusedMlups * 1.01) {
        pickMlups = mlups;
        plan.backend = name;
      }
    }
    plan.source = "measured";
    // An in-place pick (esoteric) cannot split its sweep around the
    // exchange: the plan keeps only a schedule its backend runs.
    plan.haloMode = runtime::halo_mode_for(plan.backend, plan.haloMode);
  }

  obs::count("tune.plans");
  obs::gaugeSet("tune.backend", backendGaugeValue(plan.backend));
  obs::gaugeSet("tune.halo_overlap",
                plan.haloMode == runtime::HaloMode::Overlap ? 1 : 0);
  return plan;
}

TuningPlan Tuner::planCached(TuningCache& cache, const TuningInput& in) const {
  const TuningKey key = in.key();
  if (auto hit = cache.lookup(key)) {
    obs::count("tune.cache.hit");
    return *hit;
  }
  obs::count("tune.cache.miss");
  TuningPlan p = plan(in);
  cache.store(key, p);
  return p;
}

void apply(const TuningPlan& plan, runtime::HaloMode& mode) {
  mode = plan.haloMode;
  obs::count("tune.plan.applied");
  obs::gaugeSet("tune.halo_overlap",
                plan.haloMode == runtime::HaloMode::Overlap ? 1 : 0);
}

void apply(const TuningPlan& plan, std::string& backend) {
  if (find_backend_info(plan.backend)) backend = plan.backend;
  obs::count("tune.plan.applied");
  obs::gaugeSet("tune.backend", backendGaugeValue(plan.backend));
}

std::string summary(const TuningPlan& plan) {
  std::ostringstream os;
  os << "halo=" << halo_mode_name(plan.haloMode)
     << " backend=" << plan.backend << " precision=" << plan.precision
     << " source=" << plan.source;
  return os.str();
}

}  // namespace swlb::tune
