// yardstick: the repository's one benchmark command (see README.md).
//
//   yardstick --workload cavity_bulk|porous_ranks|serve_churn --seed N
//             --seconds S --trace 0|1 [--smoke] [--corrupt CHECK] [--out DIR]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics of the run (end-to-end untraced, per-layer traced).
#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "yardstick.hpp"

namespace yardstick {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point processStart() { return kProcessStart; }

const std::vector<MetricDef> kEndToEnd = {
    {"mlups", "MLUPS"},
    {"latency_p90_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"core.step_ms", "ms"},
    {"core.step_1t_ms", "ms"},
    {"core.kernel_ms", "ms"},
    {"core.thread_speedup", "ratio"},
    {"core.bytes_per_lup", "B"},
    {"core.achieved_gbs", "GB/s"},
    {"core.bw_fraction", "frac"},
    {"core.bw_fraction_1t", "frac"},
    {"host.copy_gbs_1t", "GB/s"},
    {"host.copy_gbs_nt", "GB/s"},
    {"host.triad_gbs_1t", "GB/s"},
    {"host.triad_gbs_nt", "GB/s"},
    {"runtime.step_ms", "ms"},
    {"runtime.halo_post_ms", "ms"},
    {"runtime.halo_finish_ms", "ms"},
    {"runtime.compute_interior_ms", "ms"},
    {"runtime.compute_frontier_ms", "ms"},
    {"runtime.wait_frac", "frac"},
    {"runtime.messages_per_step", "count"},
    {"runtime.bytes_per_step", "B"},
    {"runtime.rank_imbalance", "ratio"},
    {"runtime.fluid_imbalance", "ratio"},
    {"serve.quantum_ms", "ms"},
    {"serve.resume_ms", "ms"},
    {"serve.evict_ms", "ms"},
    {"serve.useful_frac", "frac"},
    {"serve.evictions_per_job", "count"},
    {"serve.resumes_per_job", "count"},
    {"io.ckpt_save_ms", "ms"},
    {"io.ckpt_restore_ms", "ms"},
    {"io.bytes_written_per_job", "B"},
    {"io.bytes_read_per_job", "B"},
    {"app.build_case_ms.cavity", "ms"},
    {"app.build_case_ms.channel", "ms"},
    {"app.build_case_ms.cylinder", "ms"},
    {"app.build_case_ms.urban", "ms"},
    {"core.self_frac", "frac"},
    {"runtime.self_frac", "frac"},
    {"serve.self_frac", "frac"},
    {"io.self_frac", "frac"},
    {"app.self_frac", "frac"},
    {"unattributed_frac", "frac"},
    {"obs.trace_overhead_frac", "frac"},
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(rank, v.size()) - 1];
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t wordHash(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ bytes;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

PhaseTotals PhaseTotals::of(const swlb::obs::MetricsRegistry& reg) {
  PhaseTotals t;
  for (const auto& [name, s] : reg.histogramSnapshot()) {
    t.seconds[name] = s.total;
    t.calls[name] = s.count;
  }
  t.counters = reg.counterSnapshot();
  return t;
}

PhaseTotals PhaseTotals::minus(const PhaseTotals& e) const {
  PhaseTotals d = *this;
  for (auto& [k, v] : d.seconds) v -= e.sec(k);
  for (auto& [k, v] : d.calls) v -= e.n(k);
  for (auto& [k, v] : d.counters) v -= e.counter(k);
  return d;
}

double PhaseTotals::sec(const std::string& name) const {
  const auto it = seconds.find(name);
  return it == seconds.end() ? 0 : it->second;
}
std::uint64_t PhaseTotals::n(const std::string& name) const {
  const auto it = calls.find(name);
  return it == calls.end() ? 0 : it->second;
}
std::uint64_t PhaseTotals::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// ---- spans ---------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog* log, int slot, const char* name,
                      const char* layer)
    : log_(log), slot_(slot) {
  if (!log_) return;
  Slot& s = log_->slots_[static_cast<std::size_t>(slot_)];
  const int parent = s.open.empty() ? -1 : s.open.back();
  index_ = static_cast<int>(s.spans.size());
  s.spans.push_back({name, layer, parent, log_->nowUs(), 0});
  s.open.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (!log_) return;
  Slot& s = log_->slots_[static_cast<std::size_t>(slot_)];
  s.spans[static_cast<std::size_t>(index_)].endUs = log_->nowUs();
  s.open.pop_back();
}

std::map<std::string, double> SpanLog::selfTimes(const char* unit) const {
  std::map<std::string, double> out;
  for (const Slot& s : slots_) {
    std::vector<double> childUs(s.spans.size(), 0);
    std::vector<int> root(s.spans.size(), -1);
    for (std::size_t i = 0; i < s.spans.size(); ++i) {
      const Span& sp = s.spans[i];
      if (sp.parent >= 0) {
        childUs[static_cast<std::size_t>(sp.parent)] += sp.endUs - sp.beginUs;
        root[i] = root[static_cast<std::size_t>(sp.parent)];
      } else {
        root[i] = static_cast<int>(i);
      }
    }
    for (std::size_t i = 0; i < s.spans.size(); ++i) {
      const Span& sp = s.spans[i];
      if (std::string(s.spans[static_cast<std::size_t>(root[i])].name) != unit)
        continue;
      const double dur = (sp.endUs - sp.beginUs) * 1e-6;
      const double self = dur - childUs[i] * 1e-6;
      if (sp.parent < 0) {
        out["unattributed"] += self;
        out["total"] += dur;
      } else {
        out[sp.layer] += self;
      }
    }
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span log " + path);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t t = 0; t < slots_.size(); ++t)
    for (std::size_t i = 0; i < slots_[t].spans.size(); ++i) {
      const Span& s = slots_[t].spans[i];
      os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
         << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
         << t << ",\"ts\":" << s.beginUs << ",\"dur\":" << s.endUs - s.beginUs
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
      first = false;
    }
  os << "\n]}\n";
}

// ---- report --------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {value, unit};
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.v;
}

void Report::note(const std::string& key, const std::string& text) {
  notes_.push_back("# " + key + ": " + text);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  std::printf("check %-24s %s  (%s)\n", name.c_str(), ok ? "ok" : "FAILED",
              detail.c_str());
  if (!ok) {
    failures_.push_back(name);
    std::fprintf(stderr, "CHECK FAILED: %s: %s\n", name.c_str(),
                 detail.c_str());
  }
}

namespace {
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}
}  // namespace

int Report::finish(const Options& o) {
  const std::vector<MetricDef>& defs = o.trace ? kPerLayer : kEndToEnd;
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) {
      // A layer the workload never enters did no work.  End-to-end metrics
      // are measured on every workload, so a missing one is a bug.
      if (!o.trace)
        check("metrics", false, std::string("missing ") + d.name);
      else
        set(d.name, 0, d.unit);
    } else if (it->second.unit != d.unit) {
      check("metrics", false, std::string(d.name) + " has unit " +
                                  it->second.unit + ", catalogue says " +
                                  d.unit);
    }
  }
  for (const auto& name : order_)
    if (!std::isfinite(values_[name].v))
      check("metrics", false, name + " is not finite");

  for (const auto& n : notes_) std::printf("%s\n", n.c_str());
  std::printf("%-32s %18s  %s\n", "metric", "value", "unit");
  for (const auto& name : order_)
    std::printf("%-32s %18.6g  %s\n", name.c_str(), values_[name].v,
                values_[name].unit.c_str());

  std::string json = "{\"correct\": ";
  json += failures_.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const Value& v = values_[d.name];
    json.append(first ? "\"" : ", \"").append(d.name);
    json.append("\": {\"value\": ");
    json.append(std::isfinite(v.v) ? number(v.v) : "null");
    json.append(", \"unit\": \"").append(v.unit).append("\"}");
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failures_.empty() ? 0 : 1;
}

void reportSteps(Report& r, const std::vector<double>& stepSeconds,
                 double cells) {
  const double p90 = quantile(stepSeconds, 0.9);
  double total = 0;
  for (double s : stepSeconds) total += s;
  r.set("mlups", cells / p90 / 1e6, "MLUPS");
  r.set("latency_p90_ms", p90 * 1e3, "ms");
  r.set("step_p50_ms", quantile(stepSeconds, 0.5) * 1e3, "ms");
  r.set("step_p90_ms", p90 * 1e3, "ms");
  r.set("mlups_mean",
        cells * static_cast<double>(stepSeconds.size()) / total / 1e6, "MLUPS");
  r.set("steps_timed", static_cast<double>(stepSeconds.size()), "count");
  r.set("error_rate", 0, "frac");
}

void reportBreakdown(Report& r, const Options& o,
                     std::map<std::string, double> layerSeconds,
                     double totalSeconds, double bound) {
  if (o.corrupt == "breakdown") {
    // Sabotage: lose the biggest layer, as a missing span would.
    auto big = std::max_element(
        layerSeconds.begin(), layerSeconds.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    if (big != layerSeconds.end()) big->second = 0;
  }
  double sum = 0;
  std::string parts;
  for (const char* layer : {"core", "runtime", "serve", "io", "app"}) {
    const double s = layerSeconds.count(layer) ? layerSeconds[layer] : 0;
    const double frac = totalSeconds > 0 ? s / totalSeconds : 0;
    r.set(std::string(layer) + ".self_frac", frac, "frac");
    sum += s;
    parts += std::string(parts.empty() ? "" : " + ") + layer + " " +
             number(std::round(frac * 1e4) / 1e4);
  }
  const double unattributed = totalSeconds > 0 ? 1 - sum / totalSeconds : 1;
  r.set("unattributed_frac", unattributed, "frac");
  r.check("breakdown", totalSeconds > 0 && unattributed >= -0.01 &&
                           unattributed <= bound,
          parts + ", unattributed " + number(unattributed) + " (bound " +
              number(bound) + ")");
}

}  // namespace yardstick

namespace {

int hostThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: yardstick --workload cavity_bulk|porous_ranks|"
               "serve_churn --seed N --seconds S --trace 0|1 [--smoke] "
               "[--corrupt CHECK] [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace yardstick;
  Options o;
  o.nproc = hostThreads();
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--smoke") {
        o.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--corrupt") o.corrupt = v;
      else if (a == "--out") o.outDir = v;
      else return usage();
    }
    if (!(o.seconds > 0)) return usage();
    Report r;
    r.note("workload", o.workload + (o.smoke ? " (smoke sizes)" : ""));
    r.note("seed", std::to_string(o.seed));
    r.note("host_threads", std::to_string(o.nproc));
    if (o.workload == "cavity_bulk") runCavityBulk(o, r);
    else if (o.workload == "porous_ranks") runPorousRanks(o, r);
    else if (o.workload == "serve_churn") runServeChurn(o, r);
    else return usage();
    return r.finish(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "yardstick: %s\n", e.what());
    return 2;
  }
}
