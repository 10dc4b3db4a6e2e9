// Dual-pipeline issue model of a CPE (paper Fig. 10(2)).
//
// Each CPE issues from two pipelines: L0 executes scalar/vector
// floating-point and integer operations, L1 executes load/store and RMA
// operations.  A perfectly scheduled instruction stream overlaps the two
// (cycles = max(L0, L1)); an unscheduled stream serializes on
// dependencies (cycles -> L0 + L1).  The model interpolates with a
// scheduling-quality factor and is what quantifies the paper's
// "+assembly & pipelining" ladder stage.
#pragma once

#include <algorithm>

#include "core/common.hpp"

namespace swlb::sw {

struct InstructionMix {
  double flops = 0;        ///< floating-point operations
  double memOps = 0;       ///< LDM load/store + RMA issue slots
  double flopsPerCycle = 1;  ///< L0 throughput (vector width x FMA)
  double memOpsPerCycle = 1; ///< L1 throughput
};

class PipelineModel {
 public:
  /// @param scheduling 0 = naive (fully serialized on dependencies),
  ///                   1 = perfectly software-pipelined (full overlap)
  explicit PipelineModel(double scheduling) : scheduling_(clamp01(scheduling)) {}

  double scheduling() const { return scheduling_; }

  /// Modeled cycles to retire the mix on the two pipelines.
  double cycles(const InstructionMix& mix) const {
    const double l0 = mix.flops / mix.flopsPerCycle;
    const double l1 = mix.memOps / mix.memOpsPerCycle;
    const double serial = l0 + l1;
    const double overlapped = std::max(l0, l1);
    return serial + scheduling_ * (overlapped - serial);
  }

  /// Best possible speedup for the mix (perfect software pipelining).
  static double idealSpeedup(const InstructionMix& mix) {
    return PipelineModel(0).cycles(mix) / PipelineModel(1).cycles(mix);
  }

 private:
  static double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }
  double scheduling_;
};

/// Instruction mix of the fused D3Q19 stream/collide inner loop on one
/// cell: ~250 useful flops (the BGK update) on L0 and ~38 LDM accesses
/// (19 row loads + 19 stores, vectorized 4-wide) plus address arithmetic
/// on L1.
inline InstructionMix d3q19_cell_mix(int vectorLanes) {
  InstructionMix mix;
  mix.flops = 250;
  mix.memOps = 38.0 / vectorLanes + 10;  // vector ld/st + bookkeeping
  mix.flopsPerCycle = 2.0 * vectorLanes;  // FMA per lane
  mix.memOpsPerCycle = 1.0;
  return mix;
}

}  // namespace swlb::sw
