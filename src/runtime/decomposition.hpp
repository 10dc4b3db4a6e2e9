// Block domain decomposition (paper §IV-C1, Fig. 5(1)).
//
// SunwayLB uses a 2-D decomposition over x and y with the full z axis per
// subdomain: 1-D does not expose enough parallelism for 160,000 MPI
// processes, and 3-D increases communication complexity (each process
// would have up to 26 neighbours instead of 8).  The general Pz > 1 case
// is supported for completeness and for the decomposition ablation.
#pragma once

#include <vector>

#include "core/boundary.hpp"
#include "core/common.hpp"
#include "core/field.hpp"

namespace swlb::runtime {

class Decomposition {
 public:
  /// Partition `global` cells over a procGrid.x * procGrid.y * procGrid.z
  /// process grid.  Every factor must divide the rank count used with it.
  Decomposition(const Int3& global, const Int3& procGrid);

  /// Choose a process grid for `nranks`.  With `allow3d == false` the
  /// paper's 2-D xy scheme is used (pz == 1); the factors are picked to
  /// minimize total halo-surface area.
  static Int3 choose(int nranks, const Int3& global, bool allow3d = false);

  int rankCount() const { return procGrid_.x * procGrid_.y * procGrid_.z; }
  const Int3& procGrid() const { return procGrid_; }
  const Int3& globalSize() const { return global_; }

  /// Cartesian coordinates of a rank (x fastest).
  Int3 coordsOf(int rank) const;
  /// Rank of process-grid coordinates; periodic axes wrap, otherwise
  /// returns -1 for out-of-grid coordinates.
  int rankOf(Int3 coords, bool wrapX, bool wrapY, bool wrapZ) const;

  /// Global cell box owned by `rank` (half-open).  Remainder cells are
  /// spread over the leading blocks so sizes differ by at most one.
  Box3 blockOf(int rank) const;

  /// Local interior size of `rank`'s block.
  Int3 localSize(int rank) const;

  /// Maximum imbalance: max block volume / min block volume.
  double imbalance() const;

  /// Fluid-cell-weighted load-imbalance factor: max per-block fluid-cell
  /// count over the mean.  Solid cells skip collision, so this — not raw
  /// volume — predicts which rank bottlenecks a masked case.  The mask
  /// must cover the full global box (halo ignored).
  double imbalance(const MaskField& mask) const;

  /// Total halo cells shipped per exchange, summed over all blocks — the
  /// metric minimized when choosing a process grid.  Matches what
  /// the halo exchange actually sends in the pz == 1 scheme: face strips span
  /// the z halo (nz + 2) and the four corner columns are counted.
  long long totalHaloArea() const;

 private:
  static void split(int n, int parts, int idx, int& lo, int& hi);
  Int3 global_;
  Int3 procGrid_;
};

}  // namespace swlb::runtime
