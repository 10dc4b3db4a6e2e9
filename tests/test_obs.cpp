// Observability layer unit tests (DESIGN.md §6): tracer thread-safety and
// bounded memory, histogram quantile correctness against a sorted
// reference, the zero-overhead-when-disabled contract, the Chrome-trace
// JSON golden structure (one complete event per instrumented phase per
// step per rank), BenchReport schema stability, and the StepProfiler
// reset/zero-duration coherence fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "io/json.hpp"
#include "obs/bench_report.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/step_profiler.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/distributed_solver.hpp"

namespace {

using namespace swlb;
using namespace swlb::obs;
using runtime::Comm;
using runtime::DistributedSolver;
using runtime::HaloMode;
using runtime::World;
using runtime::WorldConfig;

// ---- Tracer ------------------------------------------------------------

TEST(Tracer, RecordsCompleteScopesInOrder) {
  Tracer tracer;
  MetricsRegistry reg;
  {
    ScopedBind bind(&tracer, &reg, /*rank=*/3);
    { TraceScope s("alpha"); }
    { TraceScope s("beta"); }
  }
  ASSERT_EQ(tracer.eventCount(), 2u);
  const auto events = tracer.events();
  EXPECT_STREQ(events[0].name, "alpha");
  EXPECT_STREQ(events[1].name, "beta");
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_LE(events[0].beginUs, events[1].beginUs);
  EXPECT_GE(events[0].durUs, 0.0);
  // Scopes feed the same-named histograms too.
  EXPECT_EQ(reg.histogramSummary("alpha").count, 1u);
  EXPECT_EQ(reg.histogramSummary("beta").count, 1u);
}

TEST(Tracer, ThreadSafeUnderFourRankWorld) {
  constexpr int kRanks = 4;
  constexpr int kScopes = 500;
  Tracer tracer;
  MetricsRegistry reg;
  WorldConfig cfg;
  cfg.tracer = &tracer;
  cfg.metrics = &reg;
  World world(kRanks, cfg);
  world.run([&](Comm& comm) {
    for (int s = 0; s < kScopes; ++s) {
      TraceScope scope("work");
      (void)comm;
    }
  });
  EXPECT_EQ(tracer.eventCount(),
            static_cast<std::size_t>(kRanks) * kScopes);
  EXPECT_EQ(tracer.droppedEvents(), 0u);
  EXPECT_EQ(tracer.threadCount(), static_cast<std::size_t>(kRanks));
  // Every rank contributed exactly kScopes events.
  std::map<int, int> perRank;
  for (const TraceEvent& e : tracer.events()) ++perRank[e.rank];
  ASSERT_EQ(perRank.size(), static_cast<std::size_t>(kRanks));
  for (const auto& [rank, n] : perRank) {
    EXPECT_GE(rank, 0);
    EXPECT_LT(rank, kRanks);
    EXPECT_EQ(n, kScopes);
  }
  EXPECT_EQ(reg.histogramSummary("work").count,
            static_cast<std::uint64_t>(kRanks) * kScopes);
}

TEST(Tracer, BoundedMemoryDropsBeyondCap) {
  Tracer tracer(/*maxEventsPerThread=*/100);
  ScopedBind bind(&tracer, nullptr);
  for (int i = 0; i < 250; ++i) TraceScope scope("e");
  EXPECT_EQ(tracer.eventCount(), 100u);
  EXPECT_EQ(tracer.droppedEvents(), 150u);
  tracer.clear();
  EXPECT_EQ(tracer.eventCount(), 0u);
  { TraceScope scope("after-clear"); }
  EXPECT_EQ(tracer.eventCount(), 1u);
}

TEST(Tracer, DisabledTracerRecordsNothingButMetricsStillFlow) {
  Tracer tracer;
  tracer.setEnabled(false);
  MetricsRegistry reg;
  ScopedBind bind(&tracer, &reg);
  { TraceScope scope("quiet"); }
  obs::count("c");
  EXPECT_EQ(tracer.eventCount(), 0u);
  EXPECT_EQ(reg.histogramSummary("quiet").count, 1u);
  EXPECT_EQ(reg.counterValue("c"), 1u);
}

TEST(Tracer, ScopedBindNestsAndRestores) {
  Tracer outer, inner;
  {
    ScopedBind a(&outer, nullptr, 1);
    {
      ScopedBind b(&inner, nullptr, 2);
      TraceScope scope("in");
    }
    TraceScope scope("out");
  }
  ASSERT_EQ(inner.eventCount(), 1u);
  ASSERT_EQ(outer.eventCount(), 1u);
  EXPECT_STREQ(inner.events()[0].name, "in");
  EXPECT_EQ(inner.events()[0].rank, 2);
  EXPECT_STREQ(outer.events()[0].name, "out");
  EXPECT_EQ(outer.events()[0].rank, 1);
  EXPECT_EQ(obs::current(), nullptr);
}

// ---- zero overhead when disabled ---------------------------------------

TEST(Obs, ZeroInstrumentationEffectWhenUnbound) {
  ASSERT_EQ(obs::current(), nullptr);
  Tracer tracer;
  MetricsRegistry reg;
  // A solver run with observability constructed but NOT bound must leave
  // both completely untouched.
  Solver<D2Q9> solver(Grid(8, 8, 1), CollisionConfig{},
                      Periodicity{true, true, false});
  solver.initUniform(1.0, {0.01, 0, 0});
  solver.run(3);
  EXPECT_EQ(tracer.eventCount(), 0u);
  EXPECT_TRUE(reg.empty());
  // And the no-op helpers really are no-ops.
  obs::count("x");
  obs::observe("y", 1.0);
  obs::gaugeSet("z", 2.0);
  EXPECT_TRUE(reg.empty());
}

// ---- Histogram ---------------------------------------------------------

TEST(Histogram, QuantilesMatchSortedReference) {
  // Shuffled 1..1000: nearest-rank quantiles have closed-form answers.
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 1.0);
  std::mt19937 rng(42);
  std::shuffle(values.begin(), values.end(), rng);

  Histogram h;
  for (double v : values) h.observe(v);

  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.total(), 1000.0 * 1001.0 / 2.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Nearest rank: ceil(q*n) of the sorted sequence 1..1000 is q*1000.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 500.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 950.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 999.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);

  // Cross-check against an explicit sorted-reference implementation on a
  // second, irregular data set.
  std::vector<double> ref = {3.5, -1.0, 7.25, 0.0, 2.0, 9.0, 4.0};
  Histogram h2;
  for (double v : ref) h2.observe(v);
  std::sort(ref.begin(), ref.end());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95}) {
    const auto n = static_cast<double>(ref.size());
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q * n)));
    EXPECT_DOUBLE_EQ(h2.quantile(q), ref[rank - 1]) << "q=" << q;
  }
}

TEST(Histogram, EmptyAndBoundedSampleStore) {
  Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  // Exact stats keep counting past the sample cap; quantiles come from a
  // bounded reservoir over the WHOLE stream (not just the first cap
  // observations), so late values can — and for a long stream almost
  // surely do — appear in the sample.
  Histogram h(/*sampleCap=*/4);
  for (int i = 1; i <= 100; ++i) h.observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_GT(h.quantile(1.0), 4.0);  // reservoir replaced some of 1..4

  // sampleCap == 0 keeps exact stats and empty quantiles without dividing
  // by the cap.
  Histogram none(/*sampleCap=*/0);
  none.observe(7.0);
  none.observe(9.0);
  EXPECT_EQ(none.count(), 2u);
  EXPECT_DOUBLE_EQ(none.mean(), 8.0);
  EXPECT_DOUBLE_EQ(none.quantile(0.5), 0.0);  // nothing sampled
}

TEST(Histogram, ReservoirTracksSteadyStateNotWarmup) {
  // A long run: 2 % warmup at 100 ms/step, then steady state at 1 ms.
  // First-cap sampling would fill the whole store during warmup and
  // report p50 = p95 = 100 forever; the reservoir keeps the sample
  // uniform over the stream, so the quantiles must track the steady
  // phase (98 % of observations are 1.0).
  Histogram h(/*sampleCap=*/512);
  const int warmup = 1000, steady = 49000;
  for (int i = 0; i < warmup; ++i) h.observe(100.0);
  for (int i = 0; i < steady; ++i) h.observe(1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.90), 1.0);
  // Exact fields are unaffected by sampling.
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(warmup + steady));
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Deterministic: a second histogram fed the same stream agrees exactly.
  Histogram h2(/*sampleCap=*/512);
  for (int i = 0; i < warmup; ++i) h2.observe(100.0);
  for (int i = 0; i < steady; ++i) h2.observe(1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), h2.quantile(0.95));
}

TEST(Histogram, SummaryIsSnapshotConsistentUnderConcurrency) {
  // Every observation adds (count += 1, total += 1.0) atomically under the
  // histogram lock; summary() must snapshot all fields under ONE lock, so
  // total == count exactly in every summary a reader ever sees.  Run under
  // TSan in CI; the torn-read bug also fails this test without TSan.
  Histogram h;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) h.observe(1.0);
  });
  for (int i = 0; i < 2000; ++i) {
    const Histogram::Summary s = h.summary();
    EXPECT_DOUBLE_EQ(s.total, static_cast<double>(s.count));
    if (s.count > 0) {
      EXPECT_DOUBLE_EQ(s.mean, 1.0);
      EXPECT_DOUBLE_EQ(s.min, 1.0);
      EXPECT_DOUBLE_EQ(s.max, 1.0);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(MetricsRegistry, NamedAccessAndSnapshots) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counterValue("missing"), 0u);
  reg.counter("a").add(3);
  reg.counter("a").add(2);
  reg.gauge("g").setMax(5);
  reg.gauge("g").setMax(2);  // lower value must not win
  reg.histogram("h").observe(1.5);
  EXPECT_EQ(reg.counterValue("a"), 5u);
  EXPECT_DOUBLE_EQ(reg.gaugeValue("g"), 5.0);
  EXPECT_EQ(reg.histogramSummary("h").count, 1u);
  const auto counters = reg.counterSnapshot();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters.at("a"), 5u);
  // Reads never created entries.
  EXPECT_EQ(reg.counterSnapshot().count("missing"), 0u);
}

TEST(MetricsRegistry, ScopedViewPrefixesEveryName) {
  MetricsRegistry reg;
  auto tenant = reg.scoped("tenant.3");
  tenant.counter("steps").add(7);
  tenant.gauge("resident").set(1);
  tenant.histogram("quantum_s").observe(0.25);
  // The view writes into THIS registry under the prefixed names.
  EXPECT_EQ(reg.counterValue("tenant.3.steps"), 7u);
  EXPECT_DOUBLE_EQ(reg.gaugeValue("tenant.3.resident"), 1.0);
  EXPECT_EQ(reg.histogramSummary("tenant.3.quantum_s").count, 1u);
  // Reads through the view see the same entries.
  EXPECT_EQ(tenant.counterValue("steps"), 7u);
  EXPECT_DOUBLE_EQ(tenant.gaugeValue("resident"), 1.0);
  EXPECT_EQ(tenant.histogramSummary("quantum_s").count, 1u);
  // Scopes nest, and the handle stays usable as a value.
  auto nested = reg.scoped("serve").scoped("tenant").scoped("acme");
  EXPECT_EQ(nested.prefix(), "serve.tenant.acme");
  nested.counter("jobs").add(1);
  EXPECT_EQ(reg.counterValue("serve.tenant.acme.jobs"), 1u);
  // Same underlying counter whether addressed scoped or flat.
  reg.counter("tenant.3.steps").add(1);
  EXPECT_EQ(tenant.counterValue("steps"), 8u);
  // An empty prefix is the identity view.
  EXPECT_EQ(reg.scoped("").counterValue("tenant.3.steps"), 8u);
}

// ---- Chrome-trace golden structure -------------------------------------

TEST(ChromeTrace, GoldenStructureFourRankOverlapRun) {
  constexpr int kRanks = 4;
  constexpr std::uint64_t kSteps = 5;
  Tracer tracer;
  MetricsRegistry reg;
  WorldConfig wcfg;
  wcfg.tracer = &tracer;
  wcfg.metrics = &reg;
  World world(kRanks, wcfg);
  world.run([&](Comm& comm) {
    DistributedSolver<D2Q9>::Config cfg;
    cfg.global = {16, 16, 1};
    cfg.patchGrid = {2, 2, 1};
    cfg.periodic = {true, true, false};
    cfg.mode = HaloMode::Overlap;
    DistributedSolver<D2Q9> solver(comm, cfg);
    solver.initUniform(1.0, {0.01, 0, 0});
    solver.run(kSteps);
  });

  std::ostringstream os;
  tracer.writeChromeTrace(os);
  const io::JsonValue trace = io::parse_json(os.str(), "chrome trace");
  EXPECT_NE(trace.find("displayTimeUnit"), nullptr);
  const io::JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const auto text = [](const io::JsonValue& e, const char* key) {
    const io::JsonValue* v = e.find(key);
    EXPECT_TRUE(v && v->type == io::JsonValue::Type::String) << key;
    return v ? v->str : std::string();
  };
  const auto number = [](const io::JsonValue& e, const char* key) {
    const io::JsonValue* v = e.find(key);
    EXPECT_TRUE(v && v->type == io::JsonValue::Type::Number) << key;
    return v ? v->number : -1.0;
  };

  // One thread_name metadata row per rank.
  int metaRows = 0;
  std::map<int, std::map<std::string, int>> perRankPhase;
  for (const io::JsonValue& e : events->array) {
    if (text(e, "ph") == "M") {
      ++metaRows;
      EXPECT_EQ(text(e, "name"), "thread_name");
      continue;
    }
    EXPECT_EQ(text(e, "ph"), "X");
    EXPECT_GE(number(e, "ts"), 0.0);
    EXPECT_GE(number(e, "dur"), 0.0);
    perRankPhase[static_cast<int>(number(e, "tid"))][text(e, "name")]++;
  }
  EXPECT_EQ(metaRows, kRanks);
  ASSERT_EQ(perRankPhase.size(), static_cast<std::size_t>(kRanks));

  // Golden phase contract: one complete event per instrumented phase per
  // step per rank; 2x2 periodic torus => 8 halo neighbours per rank.
  for (const auto& [rank, phases] : perRankPhase) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    for (const char* phase :
         {"step", "z_wrap", "halo.post", "compute.interior", "halo.finish",
          "compute.frontier"}) {
      ASSERT_TRUE(phases.count(phase)) << phase;
      EXPECT_EQ(phases.at(phase), static_cast<int>(kSteps)) << phase;
    }
    EXPECT_EQ(phases.at("halo.pack"), static_cast<int>(kSteps));
    EXPECT_EQ(phases.at("halo.wait"), static_cast<int>(8 * kSteps));
    EXPECT_EQ(phases.at("halo.unpack"), static_cast<int>(8 * kSteps));
    // Sequential-mode phases must be absent from an Overlap run.
    EXPECT_EQ(phases.count("halo.exchange"), 0u);
  }
}

TEST(ChromeTrace, SequentialModeEmitsExchangePhase) {
  Tracer tracer;
  WorldConfig wcfg;
  wcfg.tracer = &tracer;
  World world(2, wcfg);
  world.run([&](Comm& comm) {
    DistributedSolver<D2Q9>::Config cfg;
    cfg.global = {8, 8, 1};
    cfg.patchGrid = {2, 1, 1};
    cfg.periodic = {true, true, false};
    cfg.mode = HaloMode::Sequential;
    DistributedSolver<D2Q9> solver(comm, cfg);
    solver.initUniform(1.0, {0, 0, 0});
    solver.run(2);
  });
  std::map<std::string, int> phases;
  for (const TraceEvent& e : tracer.events()) ++phases[e.name];
  EXPECT_EQ(phases["halo.exchange"], 2 * 2);  // 2 ranks x 2 steps
  EXPECT_EQ(phases["compute.interior"], 2 * 2);
  EXPECT_EQ(phases.count("halo.post"), 0u);
  EXPECT_EQ(phases.count("compute.frontier"), 0u);
}

// ---- BenchReport schema ------------------------------------------------

TEST(BenchReport, EmitsStableSchema) {
  MetricsRegistry reg;
  reg.counter("comm.bytes_sent").add(1024);
  reg.gauge("sw.ldm_high_water").set(4096);
  reg.histogram("step").observe(0.5);
  reg.histogram("step").observe(1.5);

  BenchReport report("bench_demo");
  BenchReport::Result& r = report.add("case-a");
  r.set("mlups", 12.5);
  r.setText("size", "16x16x1");
  r.addMetrics(reg);

  std::ostringstream os;
  report.write(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\":\"swlb-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"bench_demo\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"case-a\""), std::string::npos);
  EXPECT_NE(json.find("\"mlups\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"size\":\"16x16x1\""), std::string::npos);
  EXPECT_NE(json.find("\"comm.bytes_sent\":1024"), std::string::npos);
  EXPECT_NE(json.find("\"step\""), std::string::npos);
  for (const char* key : {"\"count\"", "\"total_s\"", "\"mean_s\"",
                          "\"min_s\"", "\"max_s\"", "\"p50_s\"", "\"p95_s\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // Byte-stable: a second write of the same report is identical.
  std::ostringstream os2;
  report.write(os2);
  EXPECT_EQ(json, os2.str());
}

// ---- StepProfiler ------------------------------------------------------

TEST(StepProfiler, ZeroDurationStepsReportNoRate) {
  StepProfiler p(1000.0);
  // Steps faster than the clock's resolution record 0 s; mlups() must say
  // "no rate" instead of dividing by a zero total.
  p.record(0.0);
  p.record(0.0);
  EXPECT_EQ(p.steps(), 2u);
  EXPECT_DOUBLE_EQ(p.totalSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(p.mlups(), 0.0);
  EXPECT_DOUBLE_EQ(p.gflops(100.0), 0.0);
  EXPECT_DOUBLE_EQ(p.minSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(p.maxSeconds(), 0.0);
}

TEST(StepProfiler, ResetRestoresMinMaxCoherence) {
  StepProfiler p(1e6);
  p.record(0.5);
  p.record(2.0);
  EXPECT_DOUBLE_EQ(p.minSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(p.maxSeconds(), 2.0);
  p.reset();
  // After reset with nothing recorded, every stat reads zero.
  EXPECT_EQ(p.steps(), 0u);
  EXPECT_DOUBLE_EQ(p.minSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(p.maxSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(p.meanSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(p.mlups(), 0.0);
  // New records must not inherit pre-reset extrema.
  p.record(1.0);
  EXPECT_DOUBLE_EQ(p.minSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(p.maxSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(p.mlups(), 1.0);  // 1e6 cells / 1 s = 1 MLUPS
}

TEST(StepProfiler, RejectsNonPositiveCells) {
  EXPECT_THROW(StepProfiler(0.0), Error);
  EXPECT_THROW(StepProfiler(-1.0), Error);
}

}  // namespace
