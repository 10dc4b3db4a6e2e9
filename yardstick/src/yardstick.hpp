// Shared plumbing of the yardstick benchmark: options, the metric
// catalogue, the report that prints and checks them, and the benchmark's
// own span log for the traced run.  See yardstick/README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace yardstick {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process start as seen by main(); setup_s counts from here.
Clock::time_point processStart();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes, one repetition: checks the plumbing, not the machine.
  bool smoke = false;
  /// Name of an output check to sabotage (smoke self-test of the checks).
  std::string corrupt;
  /// Where the span log is written (inside the checkout).
  std::string outDir = ".";
  int nproc = 1;
};

/// splitmix64: the seeded generator behind every workload input.  Inputs
/// depend only on --seed (standard-library distributions are
/// implementation-defined, so they are not used).
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

/// Nearest-rank quantile (q in (0, 1]) of unsorted samples; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process in MB (getrusage).
double peakRssMb();

/// 64-bit multiply-xor hash over whole 8-byte words (bench-local, used to
/// compare states without the byte-wise cost of FNV-1a on ~0.5 GB).
std::uint64_t wordHash(const void* data, std::size_t bytes);

/// Totals of the program's own phase histograms and counters, snapshotted
/// so a window is the difference of two snapshots.
struct PhaseTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, std::uint64_t> calls;
  std::map<std::string, std::uint64_t> counters;

  static PhaseTotals of(const swlb::obs::MetricsRegistry& reg);
  PhaseTotals minus(const PhaseTotals& earlier) const;
  double sec(const std::string& name) const;
  std::uint64_t n(const std::string& name) const;
  std::uint64_t counter(const std::string& name) const;
};

/// The benchmark's own spans: name, layer, parent, begin, end, per thread
/// slot.  Each slot is written by one thread only; reading and writing out
/// happen after those threads joined.
class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* layer;
    int parent;  ///< index in the same slot, -1 for a root
    double beginUs, endUs;
  };

  explicit SpanLog(int slots) : slots_(static_cast<std::size_t>(slots)) {}

  class Scope {
   public:
    /// `log` may be null: the scope then records nothing.
    Scope(SpanLog* log, int slot, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int slot_;
    int index_ = -1;
  };

  /// Self time (seconds) per layer over every span below a root named
  /// `unit`, plus the roots' own self time under the key "unattributed",
  /// and the roots' total under "total".
  std::map<std::string, double> selfTimes(const char* unit) const;
  /// Chrome-trace JSON with the parent links as args.
  void write(const std::string& path) const;

 private:
  struct Slot {
    std::vector<Span> spans;
    std::vector<int> open;
  };
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  std::vector<Slot> slots_;
  Clock::time_point epoch_ = Clock::now();
};

/// Metric catalogue: the names and units BENCHMARK.json lists.  The final
/// JSON line carries exactly kEndToEnd (untraced run) or kPerLayer
/// (traced run); the table above it also prints extra named figures.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Context line printed with the table ("# key: text").
  void note(const std::string& key, const std::string& text);
  /// Output check: a failure fails the run (exit code 1, correct=false).
  void check(const std::string& name, bool ok, const std::string& detail);
  double get(const std::string& name) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Print notes, checks, the metric table and the final JSON line.
  /// Returns the process exit code.
  int finish(const Options& o);

 private:
  struct Value {
    double v;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Value> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// End-to-end figures of a run of timed steps (cavity_bulk, porous_ranks):
/// `mlups` is the rate at the p90 step, which 90 % of steps reach; the
/// table also gets the median, the mean rate and the sample count.
void reportSteps(Report& r, const std::vector<double>& stepSeconds,
                 double cells);

/// The breakdown self-check: layer self times must add back to the unit
/// time, leaving at most `bound` (and never a negative share) unattributed.
/// Sets `<layer>.self_frac` for every layer and `unattributed_frac`.
void reportBreakdown(Report& r, const Options& o,
                     std::map<std::string, double> layerSeconds,
                     double totalSeconds, double bound);

void runCavityBulk(const Options& o, Report& r);
void runPorousRanks(const Options& o, Report& r);
void runServeChurn(const Options& o, Report& r);

/// STREAM-style copy and triad at 1 and `threads` threads on arrays of at
/// least 4x the host's L2 + L3; sets host.* metrics.
void probeHostBandwidth(const Options& o, Report& r);

}  // namespace yardstick
