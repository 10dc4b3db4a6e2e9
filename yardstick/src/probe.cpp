// Host memory-bandwidth probe: the roofline the LBM kernel is measured
// against (paper §V reports the kernel's share of measured bandwidth).
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <thread>

#include "yardstick.hpp"

namespace yardstick {

namespace {

constexpr int kReps = 5;

/// Median GB/s of `kReps` passes of `body(lo, hi)` split over `threads`
/// contiguous chunks; `bytesPerElem` counts the STREAM way (no
/// write-allocate traffic), like core.bytes_per_lup.
template <class Body>
double measure(std::size_t n, int threads, double bytesPerElem, Body body) {
  std::vector<double> gbs;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    std::vector<std::thread> team;
    for (int t = 0; t < threads; ++t)
      team.emplace_back([&, t] {
        body(n * static_cast<std::size_t>(t) / static_cast<std::size_t>(threads),
             n * static_cast<std::size_t>(t + 1) /
                 static_cast<std::size_t>(threads));
      });
    for (auto& th : team) th.join();
    gbs.push_back(bytesPerElem * static_cast<double>(n) / since(t0) / 1e9);
  }
  return median(gbs);
}

}  // namespace

void probeHostBandwidth(const Options& o, Report& r) {
  // Private L2 per core plus one shared L3 (sysconf reads them via cpuid).
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const double llcBytes =
      static_cast<double>(std::max(0L, l2)) * o.nproc +
      static_cast<double>(std::max(0L, l3));
  const double mib = 1024.0 * 1024.0;
  const double arrayBytes =
      o.smoke ? 16 * mib : std::max(4 * llcBytes, 256 * mib);
  const auto n = static_cast<std::size_t>(arrayBytes / sizeof(double));

  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  double* __restrict pa = a.get();
  double* __restrict pb = b.get();
  double* __restrict pc = c.get();
  measure(n, o.nproc, 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pa[i] = 1.0;
      pb[i] = 2.0;
      pc[i] = 0.5;
    }
  });
  const auto copy = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) pc[i] = pa[i];
  };
  const auto triad = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + 3.0 * pc[i];
  };
  r.set("host.copy_gbs_1t", measure(n, 1, 16, copy), "GB/s");
  r.set("host.copy_gbs_nt", measure(n, o.nproc, 16, copy), "GB/s");
  r.set("host.triad_gbs_1t", measure(n, 1, 24, triad), "GB/s");
  r.set("host.triad_gbs_nt", measure(n, o.nproc, 24, triad), "GB/s");
  char line[160];
  std::snprintf(line, sizeof(line),
                "%.0f MiB per array (x3 for triad) vs L2+L3 = %.0f MiB; "
                "%d threads for _nt",
                arrayBytes / mib, llcBytes / mib, o.nproc);
  r.note("bandwidth_probe", line);
  r.check("probe_values", pa[n / 2] == 2.0 + 3.0 * 1.0,
          "triad result a = b + 3c");
}

}  // namespace yardstick
