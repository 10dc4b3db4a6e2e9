// Remote Memory Access fabric of the SW26010-Pro CPE mesh (paper §IV-D2).
//
// RMA replaces register communication on the new Sunway: it supports
// one-sided P2P transfers between *any* two CPEs plus row/column
// broadcasts, with larger payloads (LDM-to-LDM) and non-blocking issue.
// The emulator meters operations and bytes; payloads are copied
// functionally.
#pragma once

#include <cstdint>
#include <span>

#include "core/common.hpp"
#include "sw/regcomm.hpp"

namespace swlb::sw {

class RmaFabric {
 public:
  RmaFabric(int rows, int cols) : rows_(rows), cols_(cols) {}

  /// One-sided put: any CPE pair is reachable (mesh routes the transfer).
  /// Element type is generic: reduced-precision population rows move
  /// proportionally fewer bytes over the mesh.
  template <typename T>
  void put([[maybe_unused]] int srcCpe, [[maybe_unused]] int dstCpe,
           std::span<const T> data, std::span<T> out) {
    SWLB_ASSERT(srcCpe >= 0 && srcCpe < rows_ * cols_);
    SWLB_ASSERT(dstCpe >= 0 && dstCpe < rows_ * cols_);
    SWLB_ASSERT(out.size() >= data.size());
    std::copy(data.begin(), data.end(), out.begin());
    ++stats_.packets;
    stats_.bytes += data.size_bytes();
  }

  /// One-sided get (symmetric to put in the emulator).
  template <typename T>
  void get(int srcCpe, int dstCpe, std::span<const T> remote,
           std::span<T> local) {
    put(dstCpe, srcCpe, remote, local);
  }

  const FabricStats& stats() const { return stats_; }
  void resetStats() { stats_ = FabricStats{}; }
  double modeledSeconds(double bandwidth) const {
    return static_cast<double>(stats_.bytes) / bandwidth;
  }

 private:
  int rows_, cols_;
  FabricStats stats_;
};

}  // namespace swlb::sw
