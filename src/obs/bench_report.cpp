#include "obs/bench_report.hpp"

#include <deque>
#include <fstream>

#include "io/json.hpp"

namespace swlb::obs {

namespace {

using io::json_number;
using io::json_quote;

template <typename Map, typename Fn>
void writeObject(std::ostream& os, const Map& map, Fn&& writeValue) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : map) {
    if (!first) os << ',';
    first = false;
    os << json_quote(k) << ':';
    writeValue(v);
  }
  os << '}';
}

}  // namespace

BenchReport::Result& BenchReport::add(const std::string& name) {
  results_.emplace_back(name);
  return results_.back();
}

void BenchReport::write(std::ostream& os) const {
  os << "{\"schema\":\"" << kBenchSchema << "\",\"bench\":"
     << json_quote(bench_) << ",\"results\":[";
  bool firstResult = true;
  for (const Result& r : results_) {
    if (!firstResult) os << ',';
    firstResult = false;
    os << "{\"name\":" << json_quote(r.name_) << ",\"values\":";
    writeObject(os, r.values_, [&](double v) { os << json_number(v); });
    os << ",\"text\":";
    writeObject(os, r.text_,
                [&](const std::string& v) { os << json_quote(v); });
    os << ",\"counters\":";
    writeObject(os, r.counters_, [&](std::uint64_t v) { os << v; });
    os << ",\"gauges\":";
    writeObject(os, r.gauges_, [&](double v) { os << json_number(v); });
    os << ",\"phases\":";
    writeObject(os, r.phases_, [&](const Histogram::Summary& s) {
      os << "{\"count\":" << s.count
         << ",\"total_s\":" << json_number(s.total)
         << ",\"mean_s\":" << json_number(s.mean)
         << ",\"min_s\":" << json_number(s.min)
         << ",\"max_s\":" << json_number(s.max)
         << ",\"p50_s\":" << json_number(s.p50)
         << ",\"p95_s\":" << json_number(s.p95) << '}';
    });
    os << '}';
  }
  os << "]}\n";
}

void BenchReport::write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw Error("BenchReport: cannot open '" + path + "' for writing");
  write(os);
  os.flush();
  if (!os) throw Error("BenchReport: write failed for '" + path + "'");
}

}  // namespace swlb::obs
