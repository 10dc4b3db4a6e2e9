// Patch decomposition with measured dynamic load balancing (DESIGN.md
// §13; Feichtinger et al., arXiv:1007.1388).
//
// The paper's static uniform 2-D split (§IV-C1) assigns every rank the
// same cell *volume*, so any non-uniform workload — terrain masks, hulls,
// sponge zones — idles the ranks that drew the solid-heavy blocks.  The
// patch model splits the global box into small sub-boxes ("patches",
// one or several per rank), orders them along a Morton space-filling
// curve, and assigns *contiguous curve segments* to ranks by weighted
// recursive bisection.  Weights start as fluid-cell counts from the mask
// and are replaced online by measured per-patch step-time EMAs, so the
// engine can migrate the smallest set of patches that brings the measured
// imbalance back under a threshold.
//
// PatchLayout is the pure geometry and policy half; the distributed
// engine (runtime/distributed_solver.hpp) owns the blocks a layout
// assigns a rank, their ghost exchange and their migration.  One patch
// per rank is the paper's layout.
#pragma once

#include <vector>

#include "core/boundary.hpp"
#include "runtime/decomposition.hpp"

namespace swlb::runtime {

/// Geometry + assignment policy of the patch decomposition.  Pure
/// functions of (global box, patch grid, weights) — no communication —
/// so every rank computes identical layouts and rebalance plans from
/// identical inputs (the solver feeds it deterministically-allreduced
/// weight vectors).
class PatchLayout {
 public:
  /// `patchGrid.z` must be 1 (full z per patch, the paper's xy scheme).
  PatchLayout(const Int3& global, const Int3& patchGrid);

  int patchCount() const { return decomp_.rankCount(); }
  const Decomposition& decomposition() const { return decomp_; }
  Box3 boxOf(int patch) const { return decomp_.blockOf(patch); }

  /// Patch ids ordered along the Morton curve over patch-grid (x, y)
  /// coordinates — deterministic, a permutation of 0..patchCount-1.
  const std::vector<int>& sfcOrder() const { return order_; }

  /// Per-patch streaming-cell counts ("fluid weights"): cells whose
  /// material class streams (fluid, porous, Zou/He...) cost a full
  /// gather+collide; solid/wall cells take the cheap boundary path.
  std::vector<double> fluidWeights(const MaskField& globalMask,
                                   const MaterialTable& mats) const;

  /// Assign contiguous curve segments to `nranks` by weighted recursive
  /// bisection.  Every rank receives at least one patch.  Returns the
  /// owner rank per patch id.
  std::vector<int> assignBisect(const std::vector<double>& weights,
                                int nranks) const;

  /// Load-imbalance factor of an assignment: max rank load / mean rank
  /// load (1.0 = perfectly balanced).
  static double rankImbalance(const std::vector<int>& owners,
                              const std::vector<double>& weights, int nranks);

  struct Move {
    int patch = -1;
    int from = -1;
    int to = -1;
  };

  /// Greedy move plan bringing `rankImbalance` under `threshold`: each
  /// round moves the one patch from the most-loaded to the least-loaded
  /// rank that most lowers their pairwise peak — an approximately minimal
  /// migration set.  Never empties a rank.  Deterministic for identical
  /// inputs; returns an empty plan when already under threshold or no
  /// move improves.
  std::vector<Move> planRebalance(const std::vector<int>& owners,
                                  const std::vector<double>& weights,
                                  int nranks, double threshold) const;

 private:
  Decomposition decomp_;
  std::vector<int> order_;
};

}  // namespace swlb::runtime
