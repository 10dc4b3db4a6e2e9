// Halo-exchange plan between neighbouring subdomain blocks (paper
// Fig. 9(1)).
//
// With the paper's 2-D xy decomposition every block exchanges one-cell-wide
// strips with up to 8 neighbours (4 faces + 4 corners).  Strips span the
// full z extent *including* the z halo so that diagonal pulls across the
// subdomain corner pick up correct data; the caller must apply the local
// z periodic wrap before exchanging.
//
// HaloPlan is the geometry only: which links a block has, which boxes
// travel over each, and the strip formats both ends pack and unpack.  The
// transport — messages to blocks on other ranks, copies to blocks on the
// same rank — lives in the one distributed engine
// (runtime/distributed_solver.hpp).
//
// Populations are packed in their *storage* precision: reduced-precision
// fields move proportionally fewer bytes on the wire (the raw storage
// elements are copied verbatim — no decode/encode error).
#pragma once

#include <string>
#include <vector>

#include "core/field.hpp"
#include "core/kernels.hpp"  // Periodicity
#include "runtime/decomposition.hpp"

namespace swlb::runtime {

/// Halo-exchange scheduling scheme of a distributed step (paper Fig. 6).
///
///   * `Sequential` — Fig. 6(1): exchange every halo strip, *then* update
///     the whole subdomain.  Simplest schedule; communication time is
///     fully exposed on the critical path.
///   * `Overlap` — Fig. 6(2), the default: post receives and send packed
///     strips, update the inner cells (which need no remote data) while
///     messages are in flight, then update the one-cell boundary shell
///     after the halo lands.  Hides communication behind computation; the
///     paper credits it with ~10 % end-to-end gain, and both schemes are
///     bit-identical in results (tested by test_distributed).
///
/// Valid values: exactly these two.  The auto-tuner (src/tune/) picks one
/// from the modeled halo-vs-compute ratio (DESIGN.md §9); override it via
/// `DistributedSolver::Config::mode`.
enum class HaloMode { Sequential, Overlap };

/// The halo schedule blocks of `backend` run when `wanted` is asked for.
/// Overlap sweeps the inner box and the boundary shell in separate calls,
/// so it needs a backend that sweeps sub-ranges (caps.subRange) of a
/// two-lattice block (no caps.inPlaceStreaming); any other backend
/// (swcpe, esoteric) runs Sequential.  DistributedSolver's constructor
/// rejects any other mode; swlb_run and the tuner pick through this.  An
/// unknown name keeps `wanted` (the constructor rejects the name itself,
/// listing the registered backends).
HaloMode halo_mode_for(const std::string& backend, HaloMode wanted);

class HaloPlan {
 public:
  /// Plan the links of block `block` of `decomp`.  `periodic` is the
  /// *global* domain periodicity; periodic axes wrap around the block
  /// grid (possibly onto the same block).
  HaloPlan(const Decomposition& decomp, int block, const Periodicity& periodic,
           const Grid& localGrid);

  /// One ghost link: boxes in local coordinates, tags in the forward
  /// direction tag space 0..8.
  struct Link {
    int peer = -1;       // neighbour block id in the planning decomposition
    int dx = 0, dy = 0;  // direction from this block to the peer
    Box3 sendBox;        // our cells the peer's halo needs
    Box3 recvBox;        // our halo cells the peer fills
    int sendTag = 0, recvTag = 0;
  };

  /// Planned links (faces + corners, wrapped axes included), in the fixed
  /// order dy outer, dx inner — the order every transport walks them.
  const std::vector<Link>& links() const { return links_; }
  int neighborCount() const { return static_cast<int>(links_.size()); }

  /// Cells whose update only touches own interior data (safe to compute
  /// while halo messages are in flight).
  Box3 innerBox() const;
  /// The boundary shell = interior minus innerBox, as up to 4 boxes.
  std::vector<Box3> boundaryShell() const;

  /// Bytes sent per exchange of a Q-population field with `elemBytes`-wide
  /// storage elements, over every link (for the perf model).
  std::size_t bytesPerExchange(int q,
                               std::size_t elemBytes = sizeof(Real)) const;

  // ---- strip formats ---------------------------------------------------
  // One layout for every strip: slot q outer (ascending, only the slots
  // the direction moves), then z, y, x.  Both ends enumerate it the same
  // way whichever backend each block runs.

  /// Forward strip: every slot of `box`.
  template <class S>
  static void packStrip(const PopulationFieldT<S>& f, const Box3& box,
                        S* out) {
    std::size_t k = 0;
    for (int q = 0; q < f.q(); ++q)
      for (int z = box.lo.z; z < box.hi.z; ++z)
        for (int y = box.lo.y; y < box.hi.y; ++y)
          for (int x = box.lo.x; x < box.hi.x; ++x) out[k++] = f.raw(q, x, y, z);
  }

  /// Inverse of packStrip: deposit the elements of `in` into `box` of `f`.
  template <class S>
  static void unpackStrip(PopulationFieldT<S>& f, const Box3& box,
                          const S* in) {
    std::size_t k = 0;
    for (int q = 0; q < f.q(); ++q)
      for (int z = box.lo.z; z < box.hi.z; ++z)
        for (int y = box.lo.y; y < box.hi.y; ++y)
          for (int x = box.lo.x; x < box.hi.x; ++x) f.raw(q, x, y, z) = in[k++];
  }

  /// Reverse strip for the esoteric single-buffer scheme, sent *after* the
  /// even in-place sweep.  That sweep scatters post-collision populations
  /// outward: a boundary cell writes slot opp(i) of the halo cell x + c_i,
  /// which canonically belongs to the peer's edge cell.  So the roles flip
  /// relative to the forward strip — pack from the recvBox (our halo,
  /// where the deposits landed), unpack into the sendBox (our edge, where
  /// the peer's deposits belong).  A deposit [j, h] in our halo was
  /// written by our cell h + c_j, so the packed slots have c_j pointing
  /// from the halo into our interior (c_j = -d on the link's axes); an
  /// edge slot [j, e] whose writer lives on the peer has c_j = +d.  The
  /// mirrored link flips d, so both ends enumerate the same slot set.
  /// Wall parks never cross blocks (a park is a cell's deposit into its
  /// own adjacent wall), so the link strips suffice.
  template <class D, class S>
  static void packReverse(const PopulationFieldT<S>& f, const Link& l,
                          S* out) {
    std::size_t k = 0;
    const Box3& box = l.recvBox;
    for (int j = 0; j < D::Q; ++j) {
      if (!towards<D>(j, -l.dx, -l.dy)) continue;
      for (int z = box.lo.z; z < box.hi.z; ++z)
        for (int y = box.lo.y; y < box.hi.y; ++y)
          for (int x = box.lo.x; x < box.hi.x; ++x) out[k++] = f.raw(j, x, y, z);
    }
  }

  /// Inverse of packReverse on the mirrored link: land the peer's
  /// deposits on our edge.
  template <class D, class S>
  static void unpackReverse(PopulationFieldT<S>& f, const Link& l,
                            const S* in) {
    std::size_t k = 0;
    const Box3& box = l.sendBox;
    for (int j = 0; j < D::Q; ++j) {
      if (!towards<D>(j, l.dx, l.dy)) continue;
      for (int z = box.lo.z; z < box.hi.z; ++z)
        for (int y = box.lo.y; y < box.hi.y; ++y)
          for (int x = box.lo.x; x < box.hi.x; ++x) f.raw(j, x, y, z) = in[k++];
    }
  }

  /// Elements one strip of link `l` carries: every slot forward, the
  /// slots pointing along the link in reverse.
  template <class D>
  static std::size_t stripElements(const Link& l, bool reverse) {
    int slots = D::Q;
    if (reverse) {
      slots = 0;
      for (int j = 0; j < D::Q; ++j) slots += towards<D>(j, l.dx, l.dy);
    }
    return static_cast<std::size_t>(l.sendBox.volume()) *
           static_cast<std::size_t>(slots);
  }

 private:
  /// Whether velocity j points along (dx, dy) on every axis the link
  /// crosses.
  template <class D>
  static bool towards(int j, int dx, int dy) {
    return (dx == 0 || D::c[j][0] == dx) && (dy == 0 || D::c[j][1] == dy);
  }

  Grid grid_;
  bool decomposedX_ = false, decomposedY_ = false;
  std::vector<Link> links_;
};

}  // namespace swlb::runtime
