#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/lattice.hpp"
#include "core/precision.hpp"
#include "obs/context.hpp"
#include "obs/step_profiler.hpp"
#include "perf/cost_model.hpp"
#include "perf/network.hpp"
#include "runtime/decomposition.hpp"
#include "runtime/distributed_solver.hpp"
#include "sw/cpe.hpp"

namespace swlb::tune {

namespace {

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

/// Zero-padded evidence key, e.g. "trial.chunk_x.032_s", so the ladder
/// sorts numerically in the (lexicographic) evidence map.
std::string chunkKey(int c) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "trial.chunk_x.%03d_s", c);
  return buf;
}

// ---- chunk_x trial ladder on the CPE emulator --------------------------
// CpeCluster executes sequentially and its DMA/fabric seconds are modeled
// (sw/cpe.hpp), so these trials are bit-reproducible: the same candidate
// ladder always produces the same evidence and the same argmin.

template <class D, class S>
std::map<int, double> chunkTrials(const sw::MachineSpec& machine,
                                  const std::vector<int>& candidates,
                                  int proxyNx, int proxyNy, int proxyNz) {
  obs::TraceScope scope("tune.trial.chunk");
  const Grid g(proxyNx, proxyNy, proxyNz);
  PopulationFieldT<S> src(g, D::Q), dst(g, D::Q);
  src.setShift(D::w);
  dst.setShift(D::w);
  MaskField mask(g, MaterialTable::kFluid);
  MaterialTable mats;
  const Periodicity per{true, true, true};
  Real feq[D::Q];
  equilibria<D>(Real(1), {Real(0.02), 0, 0}, feq);
  for (int q = 0; q < D::Q; ++q)
    for (int z = 0; z < g.nz; ++z)
      for (int y = 0; y < g.ny; ++y)
        for (int x = 0; x < g.nx; ++x) src(q, x, y, z) = feq[q];
  fill_halo_mask(mask, per, MaterialTable::kSolid);
  apply_periodic(src, per);

  sw::CpeCluster cluster(machine.cg);
  std::map<int, double> seconds;
  for (int c : candidates) {
    sw::SwKernelConfig cfg;
    cfg.collision.omega = 1.5;
    cfg.chunkX = c;
    const sw::SwKernelReport rep =
        sw_stream_collide<D, S>(cluster, src, dst, mask, mats, cfg);
    seconds[c] = rep.dmaSeconds + rep.fabricSeconds;
    obs::count("tune.trials.chunk");
  }
  return seconds;
}

std::map<int, double> runChunkTrials(const TuningInput& in,
                                     const std::vector<int>& candidates,
                                     int proxyNx, int proxyNy, int proxyNz) {
  const bool d3 = in.lattice == "D3Q19";
  if (in.precision == "f64")
    return d3 ? chunkTrials<D3Q19, double>(in.machine, candidates, proxyNx,
                                           proxyNy, proxyNz)
              : chunkTrials<D2Q9, double>(in.machine, candidates, proxyNx,
                                          proxyNy, proxyNz);
  if (in.precision == "f32")
    return d3 ? chunkTrials<D3Q19, float>(in.machine, candidates, proxyNx,
                                          proxyNy, proxyNz)
              : chunkTrials<D2Q9, float>(in.machine, candidates, proxyNx,
                                         proxyNy, proxyNz);
  return d3 ? chunkTrials<D3Q19, f16>(in.machine, candidates, proxyNx,
                                      proxyNy, proxyNz)
            : chunkTrials<D2Q9, f16>(in.machine, candidates, proxyNx, proxyNy,
                                     proxyNz);
}

// ---- wall-clock halo-mode trials ---------------------------------------
// Short measured runs through the World/StepProfiler plumbing.  Evidence
// only by default; they override the model's halo pick when decisively
// faster (TunerConfig::measuredMargin).  Not deterministic — guarded by
// trialSteps > 0.

template <class D>
double haloTrial(runtime::HaloMode mode, const Int3& extent, int ranks,
                 int steps) {
  obs::TraceScope scope("tune.trial.halo");
  runtime::World world(ranks);
  double meanStep = 0;
  world.run([&](runtime::Comm& c) {
    typename runtime::DistributedSolver<D>::Config cfg;
    cfg.global = extent;
    cfg.collision.omega = 1.5;
    cfg.periodic = {true, true, true};
    cfg.mode = mode;
    runtime::DistributedSolver<D> solver(c, cfg);
    solver.finalizeMask();
    solver.initUniform(1.0, {0.02, 0, 0});
    solver.run(2);  // warm-up outside the profiled window
    c.barrier();
    obs::StepProfiler prof(static_cast<double>(extent.x) * extent.y *
                           extent.z);
    for (int s = 0; s < steps; ++s) prof.step([&] { solver.step(); });
    const double worst = c.allreduce(prof.meanSeconds(), runtime::Comm::Op::Max);
    if (c.rank() == 0) meanStep = worst;
  });
  obs::count("tune.trials.halo");
  return meanStep;
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

/// Shrink the domain until each rank's block is at most `cellsPerRank`
/// cells, halving the largest axis (deterministic; aspect roughly kept).
Int3 proxyExtent(Int3 e, int ranks, std::size_t cellsPerRank) {
  auto volume = [](const Int3& v) {
    return static_cast<std::size_t>(v.x) * v.y * v.z;
  };
  while (volume(e) > cellsPerRank * static_cast<std::size_t>(ranks)) {
    int* largest = &e.x;
    if (e.y > *largest) largest = &e.y;
    if (e.z > *largest) largest = &e.z;
    if (*largest <= 8) break;
    *largest /= 2;
  }
  return e;
}

}  // namespace

std::size_t Tuner::ringCrossoverBytes(const sw::MachineSpec& machine,
                                      int ranks) {
  if (ranks <= 1) return 64 * 1024;  // no collectives: keep the default
  const perf::NetworkModel net(machine.net, machine.coreGroupsPerProcessor);
  using CA = perf::NetworkModel::CollAlgo;
  auto diff = [&](std::size_t b) {
    // > 0 when the tree is slower (ring wins) at payload b.
    return net.collectiveSeconds(CA::Tree, b, ranks) -
           net.collectiveSeconds(CA::Ring, b, ranks);
  };
  std::size_t lo = 1, hi = std::size_t(1) << 30;
  if (diff(lo) >= 0) return lo;   // ring wins everywhere (e.g. P == 2)
  if (diff(hi) <= 0) return hi;   // tree wins up to any practical payload
  // diff is monotone in b (linear with positive slope where a crossover
  // exists), so bisection pins the crossover byte exactly.
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (diff(mid) <= 0 ? lo : hi) = mid;
  }
  return hi;
}

TuningPlan Tuner::plan(const TuningInput& in) const {
  obs::TraceScope scope("tune.search");
  if (in.extent.x <= 0 || in.extent.y <= 0 || in.extent.z <= 0)
    throw Error("Tuner: extent must be positive in every axis");
  if (in.ranks < 1) throw Error("Tuner: ranks must be >= 1");
  const int q = qOf(in.lattice);
  const std::size_t elem = elemBytesOf(in.precision);

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
      cellsPerRank * cost.bytesPerLup() / in.machine.cg.dma.peakBandwidth;
  const perf::NetworkModel net(in.machine.net,
                               in.machine.coreGroupsPerProcessor);
  const double haloS =
      in.ranks > 1 ? net.haloExchangeSeconds(haloBytes, haloMessages, in.ranks)
                   : 0.0;
  const double haloFraction =
      computeS + haloS > 0 ? haloS / (computeS + haloS) : 0.0;
  plan.haloMode = (in.ranks > 1 && haloFraction > cfg_.overlapMinHaloFraction)
                      ? runtime::HaloMode::Overlap
                      : runtime::HaloMode::Sequential;
  plan.evidence["model.compute_s_per_step"] = computeS;
  plan.evidence["model.halo.bytes"] = static_cast<double>(haloBytes);
  plan.evidence["model.halo.messages"] = haloMessages;
  plan.evidence["model.halo.exchange_s"] = haloS;
  plan.evidence["model.halo.fraction"] = haloFraction;

  // ---- collective algorithm threshold ----------------------------------
  plan.ringThresholdBytes = ringCrossoverBytes(in.machine, in.ranks);
  plan.evidence["model.coll.crossover_bytes"] =
      static_cast<double>(plan.ringThresholdBytes);
  if (in.ranks > 1) {
    using CA = perf::NetworkModel::CollAlgo;
    plan.evidence["model.coll.tree_s_8B"] =
        net.collectiveSeconds(CA::Tree, 8, in.ranks);
    plan.evidence["model.coll.ring_s_8B"] =
        net.collectiveSeconds(CA::Ring, 8, in.ranks);
    plan.evidence["model.coll.tree_s_1MiB"] =
        net.collectiveSeconds(CA::Tree, 1 << 20, in.ranks);
    plan.evidence["model.coll.ring_s_1MiB"] =
        net.collectiveSeconds(CA::Ring, 1 << 20, in.ranks);
  }

  // ---- CPE chunk_x: deterministic emulator ladder ----------------------
  // Cap by the LDM plan of the *real* slab geometry; rank candidates by
  // modeled DMA+fabric seconds of a fixed proxy block (the per-cell
  // traffic ratio (bx+2)/bx and the per-transaction startup amortization
  // depend on bx, not on the slab height, so proxy ranking transfers).
  const int cpes = in.machine.cg.cpeCount();
  const int rowsPerCpe = std::max(1, (local.y + cpes - 1) / cpes);
  const int rowsY = rowsPerCpe + 2;
  const int realCap = std::min(
      local.x, sw::max_chunk_x(in.machine.cg.ldmBytes, rowsY, q, elem));
  plan.evidence["chunk.cap"] = realCap;
  const int proxyNy = std::min(local.y, cpes);  // >= 1 row on leading CPEs
  const int proxyNz = in.lattice == "D2Q9" ? 1 : std::min(local.z, 4);
  const int proxyNx = std::min(local.x, 128);
  const int proxyCap = std::min(
      {proxyNx, realCap,
       sw::max_chunk_x(in.machine.cg.ldmBytes, 3, q, elem)});
  std::vector<int> candidates;
  for (int c : {4, 8, 12, 16, 24, 32, 48, 64, 96, 128})
    if (c < proxyCap) candidates.push_back(c);
  if (proxyCap >= 1 &&
      (candidates.empty() || candidates.back() != proxyCap))
    candidates.push_back(proxyCap);
  int best = std::max(1, std::min(realCap, 32));  // fallback: no trials ran
  if (!candidates.empty()) {
    const std::map<int, double> trial =
        runChunkTrials(in, candidates, proxyNx, proxyNy, proxyNz);
    double bestS = 0;
    bool first = true;
    for (const auto& [c, s] : trial) {
      plan.evidence[chunkKey(c)] = s;
      if (first || s < bestS) {  // ties keep the smaller chunk
        best = c;
        bestS = s;
        first = false;
      }
    }
  }
  plan.chunkX = std::max(1, std::min(best, std::max(1, realCap)));

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

  // ---- optional wall-clock halo trials (evidence + cross-check) --------
  if (cfg_.trialSteps > 0 && in.ranks > 1 && in.ranks <= 64) {
    const Int3 proxy =
        proxyExtent(in.extent, in.ranks, cfg_.trialCellsPerRank);
    const bool d3 = in.lattice == "D3Q19";
    const double seqS =
        d3 ? haloTrial<D3Q19>(runtime::HaloMode::Sequential, proxy, in.ranks,
                              cfg_.trialSteps)
           : haloTrial<D2Q9>(runtime::HaloMode::Sequential, proxy, in.ranks,
                             cfg_.trialSteps);
    const double ovlS =
        d3 ? haloTrial<D3Q19>(runtime::HaloMode::Overlap, proxy, in.ranks,
                              cfg_.trialSteps)
           : haloTrial<D2Q9>(runtime::HaloMode::Overlap, proxy, in.ranks,
                             cfg_.trialSteps);
    plan.evidence["measured.halo.sequential_s"] = seqS;
    plan.evidence["measured.halo.overlap_s"] = ovlS;
    // Cross-check: does the measured ordering agree with the model's
    // exposed-communication estimate?  (Recorded; mismatches mean the
    // model's balance is off for this host, which is exactly what the
    // audit trail should show.)
    if (ovlS > 0 && computeS + haloS > 0) {
      plan.evidence["crosscheck.halo.measured_ratio"] = seqS / ovlS;
      plan.evidence["crosscheck.halo.model_ratio"] =
          (computeS + haloS) / std::max(computeS, haloS);
    }
    if (cfg_.preferMeasuredHalo && seqS > 0 && ovlS > 0) {
      const runtime::HaloMode measuredPick =
          ovlS < seqS ? runtime::HaloMode::Overlap
                      : runtime::HaloMode::Sequential;
      const double gain = std::abs(seqS - ovlS) / std::max(seqS, ovlS);
      if (measuredPick != plan.haloMode && gain > cfg_.measuredMargin) {
        plan.haloMode = measuredPick;
        plan.source = "measured";
      }
    }
  }

  // ---- host backend: wall-clock trial ladder ---------------------------
  // The registered host ladder (fused, esoteric) on a single-rank proxy
  // block at the solver's default one host thread.  The pick is
  // MLUPS-argmax with ties (within 1%) kept on "fused"; without trials
  // the default "fused" stands, keeping plan() deterministic.
  if (cfg_.backendTrialSteps > 0) {
    Int3 proxy = proxyExtent(in.extent, 1, cfg_.trialCellsPerRank);
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
  }

  obs::count("tune.plans");
  obs::gaugeSet("tune.backend", backendGaugeValue(plan.backend));
  obs::gaugeSet("tune.chunk_x", plan.chunkX);
  obs::gaugeSet("tune.ring_threshold_bytes",
                static_cast<double>(plan.ringThresholdBytes));
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

void apply(const TuningPlan& plan, coll::CollConfig& cfg) {
  cfg.ringThresholdBytes = plan.ringThresholdBytes;
  obs::count("tune.plan.applied");
  obs::gaugeSet("tune.ring_threshold_bytes",
                static_cast<double>(plan.ringThresholdBytes));
}

void apply(const TuningPlan& plan, sw::SwKernelConfig& cfg) {
  cfg.chunkX = std::max(1, plan.chunkX);
  obs::count("tune.plan.applied");
  obs::gaugeSet("tune.chunk_x", cfg.chunkX);
}

std::string summary(const TuningPlan& plan) {
  std::ostringstream os;
  os << "halo=" << halo_mode_name(plan.haloMode)
     << " ring_threshold=" << plan.ringThresholdBytes << "B"
     << " chunk_x=" << plan.chunkX << " backend=" << plan.backend
     << " precision=" << plan.precision << " source=" << plan.source;
  return os.str();
}

}  // namespace swlb::tune
