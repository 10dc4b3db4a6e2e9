// Halo exchange between neighbouring subdomain blocks (paper Fig. 9(1)).
//
// With the paper's 2-D xy decomposition every rank exchanges one-cell-wide
// strips with up to 8 neighbours (4 faces + 4 corners).  Strips span the
// full z extent *including* the z halo so that diagonal pulls across the
// subdomain corner pick up correct data; the caller must apply the local
// z periodic wrap before exchanging.
//
// Populations are packed, sent and unpacked in their *storage* precision:
// reduced-precision fields move proportionally fewer bytes on the wire
// (the raw storage elements are copied verbatim — no decode/encode error).
#pragma once

#include <array>
#include <cstring>
#include <vector>

#include "core/field.hpp"
#include "core/kernels.hpp"
#include "obs/context.hpp"
#include "runtime/comm.hpp"
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

class HaloExchange {
 public:
  /// Plan the exchange for `rank`'s block of `decomp`.  `periodic` is the
  /// *global* domain periodicity; periodic axes wrap around the process
  /// grid (possibly onto the same rank).
  HaloExchange(const Decomposition& decomp, int rank, const Periodicity& periodic,
               const Grid& localGrid);

  /// Blocking exchange of all Q population strips (sequential scheme,
  /// Fig. 6(1)).
  template <class S>
  void exchange(Comm& comm, PopulationFieldT<S>& f) {
    begin(comm, f);
    finish(comm, f);
  }

  /// On-the-fly scheme (Fig. 6(2)): post receives and send packed strips,
  /// then return so the caller can update the inner domain meanwhile.
  template <class S>
  void begin(Comm& comm, PopulationFieldT<S>& f) {
    const int q = f.q();
    // Post all receives first, then pack and send: classic non-blocking
    // ordering (also required so self-messages on wrapped axes match).
    for (auto& n : neighbors_) {
      n.recvBuf.resize(static_cast<std::size_t>(n.recvBox.volume()) * q *
                       sizeof(S));
      n.pending = comm.irecv(n.rank, n.recvTag, n.recvBuf.data(),
                             n.recvBuf.size());
    }
    obs::TraceScope packScope("halo.pack");
    for (auto& n : neighbors_) {
      n.sendBuf.resize(static_cast<std::size_t>(n.sendBox.volume()) * q *
                       sizeof(S));
      packStrip(f, n.sendBox, reinterpret_cast<S*>(n.sendBuf.data()));
      comm.isend(n.rank, n.sendTag, n.sendBuf.data(), n.sendBuf.size());
    }
  }

  /// Wait for the posted receives and unpack into the halo.
  template <class S>
  void finish(Comm& comm, PopulationFieldT<S>& f) {
    (void)comm;
    for (auto& n : neighbors_) {
      {
        obs::TraceScope waitScope("halo.wait");
        n.pending.wait();
      }
      obs::TraceScope unpackScope("halo.unpack");
      unpackStrip(f, n.recvBox, reinterpret_cast<const S*>(n.recvBuf.data()));
    }
  }

  /// Serialize `box` of `f` into `out` as raw storage elements in the one
  /// strip order every ghost message uses — q outer, then z, y, x —
  /// `box.volume() * f.q()` elements.  The patch runtime packs its ghost
  /// strips with the same pair, so both ends agree whichever backend each
  /// block runs.
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

  /// Reverse halo exchange for the esoteric single-buffer scheme, run
  /// *after* the even in-place step.  That step scatters post-collision
  /// populations outward: a boundary cell writes slot opp(i) of the halo
  /// cell x + c_i, which canonically belongs to the neighbour rank's edge
  /// cell.  So the roles flip relative to the forward exchange — we *pack
  /// from the recvBox* (our halo, where the deposits landed) and *unpack
  /// into the sendBox* (our interior edge, where the neighbour's deposits
  /// belong).  Only slots whose velocity points INTO the neighbour carry
  /// deposits (c_j · d ≥ 0 componentwise with at least the face axis
  /// matching); both sides enumerate the same slot set in ascending j, so
  /// the packed layouts agree.  Wall parks never cross ranks (a park is a
  /// cell's deposit into its *own* adjacent wall), so face strips suffice.
  /// Tags are offset by 16 to stay disjoint from the forward tags (0..8).
  template <class D, class S>
  void exchangeReverse(Comm& comm, PopulationFieldT<S>& f) {
    // A deposit [j, h] in our halo was written by our interior cell
    // h + c_j, so exported slots have c_j pointing from the halo *into*
    // our interior (c_j · d = -d componentwise).  Conversely an interior
    // edge slot [j, e] whose writer e + c_j lives on the neighbour has
    // c_j pointing *toward* the neighbour (c_j · d = +d).  The mirrored
    // neighbour flips d, so both ranks enumerate the same slot set.
    auto fromHalo = [](int dx, int dy, int j) {
      return (dx == 0 || D::c[j][0] == -dx) && (dy == 0 || D::c[j][1] == -dy);
    };
    auto intoEdge = [](int dx, int dy, int j) {
      return (dx == 0 || D::c[j][0] == dx) && (dy == 0 || D::c[j][1] == dy);
    };
    for (auto& n : neighbors_) {
      int slots = 0;
      for (int j = 0; j < D::Q; ++j)
        if (intoEdge(n.dx, n.dy, j)) ++slots;
      n.recvBuf.resize(static_cast<std::size_t>(n.sendBox.volume()) * slots *
                       sizeof(S));
      n.pending = comm.irecv(n.rank, 16 + n.recvTag, n.recvBuf.data(),
                             n.recvBuf.size());
    }
    {
      obs::TraceScope packScope("halo.pack");
      for (auto& n : neighbors_) {
        int slots = 0;
        for (int j = 0; j < D::Q; ++j)
          if (fromHalo(n.dx, n.dy, j)) ++slots;
        n.sendBuf.resize(static_cast<std::size_t>(n.recvBox.volume()) * slots *
                         sizeof(S));
        S* out = reinterpret_cast<S*>(n.sendBuf.data());
        std::size_t k = 0;
        const Box3& box = n.recvBox;
        for (int j = 0; j < D::Q; ++j) {
          if (!fromHalo(n.dx, n.dy, j)) continue;
          for (int z = box.lo.z; z < box.hi.z; ++z)
            for (int y = box.lo.y; y < box.hi.y; ++y)
              for (int x = box.lo.x; x < box.hi.x; ++x)
                out[k++] = f.raw(j, x, y, z);
        }
        comm.isend(n.rank, 16 + n.sendTag, n.sendBuf.data(), n.sendBuf.size());
      }
    }
    {
      obs::TraceScope waitScope("halo.wait");
      for (auto& n : neighbors_) n.pending.wait();
    }
    // Unpack faces first, corners second: a face strip reaches the corner
    // cell, where its diagonal-slot payload is stale on the sender (the
    // canonical writer lives on the *diagonal* rank); the corner message
    // carries the true value and must win.
    obs::TraceScope unpackScope("halo.unpack");
    for (int pass = 0; pass < 2; ++pass) {
      for (auto& n : neighbors_) {
        const bool corner = n.dx != 0 && n.dy != 0;
        if (corner != (pass == 1)) continue;
        const S* in = reinterpret_cast<const S*>(n.recvBuf.data());
        std::size_t k = 0;
        const Box3& box = n.sendBox;
        for (int j = 0; j < D::Q; ++j) {
          if (!intoEdge(n.dx, n.dy, j)) continue;
          for (int z = box.lo.z; z < box.hi.z; ++z)
            for (int y = box.lo.y; y < box.hi.y; ++y)
              for (int x = box.lo.x; x < box.hi.x; ++x)
                f.raw(j, x, y, z) = in[k++];
        }
      }
    }
  }

  /// One-off exchange of the material mask at setup time.
  void exchangeMask(Comm& comm, MaskField& mask);

  int neighborCount() const { return static_cast<int>(neighbors_.size()); }

  /// Cells whose update only touches own interior data (safe to compute
  /// while halo messages are in flight).
  Box3 innerBox() const;
  /// The boundary shell = interior minus innerBox, as up to 4 boxes.
  std::vector<Box3> boundaryShell() const;

  /// Bytes sent per exchange of a Q-population field with `elemBytes`-wide
  /// storage elements (for the perf model and the obs invariants).
  std::size_t bytesPerExchange(int q,
                               std::size_t elemBytes = sizeof(Real)) const;

  /// One planned ghost link, exposed so the patch runtime (runtime/patches)
  /// can reuse the exchange plan — boxes in local coordinates, tags in the
  /// forward tag space 0..8 — without going through Comm.  Strips travel
  /// in packStrip order.
  struct Link {
    int peer = -1;       // neighbour id in the planning decomposition
    int dx = 0, dy = 0;  // direction from this block to the peer
    Box3 sendBox;        // our cells the peer's halo needs
    Box3 recvBox;        // our halo cells the peer fills
    int sendTag = 0, recvTag = 0;
  };

  /// Copy of the planned links (faces + corners, wrapped axes included).
  std::vector<Link> links() const {
    std::vector<Link> out;
    out.reserve(neighbors_.size());
    for (const auto& n : neighbors_)
      out.push_back({n.rank, n.dx, n.dy, n.sendBox, n.recvBox, n.sendTag,
                     n.recvTag});
    return out;
  }

 private:
  struct Neighbor {
    int rank = -1;
    int dx = 0, dy = 0;
    Box3 sendBox;  // local coordinates, may reach into the z halo
    Box3 recvBox;
    int sendTag = 0, recvTag = 0;
    std::vector<std::uint8_t> sendBuf, recvBuf;  // raw storage bytes
    Request pending;
  };

  static int tagOf(int dx, int dy) { return (dx + 1) * 3 + (dy + 1); }

  Grid grid_;
  bool decomposedX_ = false, decomposedY_ = false;
  std::vector<Neighbor> neighbors_;
};

}  // namespace swlb::runtime
