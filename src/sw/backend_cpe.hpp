// The SW CPE emulator as a registered kernel backend (DESIGN.md §14).
//
// sw_stream_collide is a whole-block kernel: the core group partitions
// the block along y over 64 CPEs and sweeps everything, so the backend
// advertises caps.subRange = false — DistributedSolver then rejects the
// Overlap halo schedule instead of silently mis-running its inner/shell
// split, and the host-thread executor hands it the whole block in one
// call at any thread count.  Output stays bit-identical to the fused reference
// (the emulator computes with the same per-cell arithmetic; test_sw_
// kernels and the conformance suite both pin this).
#pragma once

#include "core/backend.hpp"
#include "sw/spec.hpp"
#include "sw/sw_kernels.hpp"

namespace swlb::sw {

template <class D, class S>
class SwCpeBackend final : public KernelBackend<D, S> {
 public:
  using Field = PopulationFieldT<S>;
  SwCpeBackend() : KernelBackend<D, S>("swcpe") {}

  void init(const Grid& grid, const MaskField& mask,
            const MaterialTable& mats) override {
    KernelBackend<D, S>::init(grid, mask, mats);
    if (!cluster_) cluster_ = std::make_unique<CpeCluster>(spec_.cg);
  }

 protected:
  void step(const BackendStepArgs<D, S>& a) override {
    if (a.range != a.src->grid().interior())
      throw Error(
          "backend 'swcpe' updates the whole block per call (capability "
          "'subRange' is off; no inner/shell overlap split)");
    if (!cluster_) cluster_ = std::make_unique<CpeCluster>(spec_.cg);
    SwKernelConfig cfg;
    cfg.collision = *a.cfg;
    cfg.chunkX = chunkFor(a.src->grid());
    sw_stream_collide<D, S>(*cluster_, *a.src, *a.dst, *a.mask, *a.mats, cfg);
  }

 private:
  /// Largest LDM-feasible x-chunk for this block (capped at the default
  /// 32): the y-slab height per CPE plus two ghost rows sizes the plan.
  int chunkFor(const Grid& g) const {
    const int cpes = spec_.cg.cpeCount();
    const int rowsPerCpe = std::max(1, (g.ny + cpes - 1) / cpes);
    const int cap =
        max_chunk_x(spec_.cg.ldmBytes, rowsPerCpe + 2, D::Q, sizeof(S));
    return std::max(1, std::min({32, cap, g.nx}));
  }

  MachineSpec spec_ = MachineSpec::sw26010();
  std::unique_ptr<CpeCluster> cluster_;
};

}  // namespace swlb::sw
