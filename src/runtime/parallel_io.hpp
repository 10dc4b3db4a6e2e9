// Parallel I/O for distributed runs (paper §IV-B: "the I/O layer provides
// support ... with several options such as group I/O and MPI I/O, with
// addition of a checkpoint and restart controller").
//
// Group checkpointing writes one checksummed file per rank plus a root
// manifest describing the decomposition; restart validates the manifest
// against the live run so a checkpoint can only be restored onto the
// layout it was taken from.  Field output is gathered to a root rank and
// written with the serial writers.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "io/vtk.hpp"
#include "obs/context.hpp"
#include "runtime/distributed_solver.hpp"

namespace swlb::runtime {

/// Per-rank checkpoint path under a common prefix.
inline std::string group_checkpoint_path(const std::string& prefix, int rank) {
  return prefix + ".rank" + std::to_string(rank) + ".ckpt";
}
inline std::string group_manifest_path(const std::string& prefix) {
  return prefix + ".manifest";
}

/// Parsed group-checkpoint manifest.  Version 2 records each rank's owned
/// global sub-box, which is what makes restore rank-count-independent: a
/// survivor set of any size can map old blocks onto a new decomposition.
/// Version-1 manifests (no block list) derive the blocks from the recorded
/// process grid, so old generations stay restorable.
struct GroupManifest {
  int version = 0;
  int ranks = 0;
  Int3 global{};
  Int3 procGrid{};
  std::uint64_t steps = 0;
  std::vector<Box3> blocks;  ///< owned global sub-box per writing rank
};

/// Read and validate a generation's manifest.  Throws on missing or
/// malformed files (the caller treats that as "generation not committed").
inline GroupManifest read_group_manifest(const std::string& prefix) {
  std::ifstream in(group_manifest_path(prefix));
  if (!in)
    throw Error("group checkpoint: missing manifest for '" + prefix + "'");
  GroupManifest m;
  std::string magic, key;
  in >> magic >> m.version;
  if (!in || magic != "swlb-group-checkpoint" ||
      (m.version != 1 && m.version != 2))
    throw Error("group checkpoint: malformed manifest for '" + prefix + "'");
  in >> key >> m.ranks >> key >> m.global.x >> m.global.y >> m.global.z >>
      key >> m.procGrid.x >> m.procGrid.y >> m.procGrid.z >> key >> m.steps;
  if (!in || m.ranks <= 0)
    throw Error("group checkpoint: malformed manifest for '" + prefix + "'");
  if (m.version >= 2) {
    m.blocks.resize(static_cast<std::size_t>(m.ranks));
    for (int r = 0; r < m.ranks; ++r) {
      int rr = -1;
      Box3 b;
      in >> key >> rr >> b.lo.x >> b.lo.y >> b.lo.z >> b.hi.x >> b.hi.y >>
          b.hi.z;
      if (!in || key != "block" || rr != r)
        throw Error("group checkpoint: malformed block table for '" + prefix +
                    "'");
      m.blocks[static_cast<std::size_t>(r)] = b;
    }
  } else {
    const Decomposition d(m.global, m.procGrid);
    if (d.rankCount() != m.ranks)
      throw Error("group checkpoint: inconsistent v1 manifest for '" + prefix +
                  "'");
    m.blocks.resize(static_cast<std::size_t>(m.ranks));
    for (int r = 0; r < m.ranks; ++r)
      m.blocks[static_cast<std::size_t>(r)] = d.blockOf(r);
  }
  return m;
}

/// Write one checkpoint file per rank plus the root manifest.  Collective.
/// The manifest is the generation's commit record: it is written (atomic
/// tmp-then-rename) only after a barrier proves every rank's block landed,
/// so a crash mid-save can leave stray rank files but never a manifest
/// that points at an incomplete generation.
template <class D, class S>
void save_group_checkpoint(DistributedSolver<D, S>& solver,
                           const std::string& prefix) {
  obs::TraceScope saveScope("checkpoint.group_save");
  Comm& comm = solver.comm();
  io::save_checkpoint(group_checkpoint_path(prefix, comm.rank()),
                      solver.block());
  comm.barrier();  // every block durable before the manifest commits them
  if (comm.rank() == 0) {
    const std::string path = group_manifest_path(prefix);
    const std::string tmp = path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::trunc);
      if (!os) throw Error("group checkpoint: cannot write manifest");
      const auto& d = solver.decomposition();
      os << "swlb-group-checkpoint 2\n"
         << "ranks " << comm.size() << "\n"
         << "global " << d.globalSize().x << ' ' << d.globalSize().y << ' '
         << d.globalSize().z << "\n"
         << "procgrid " << d.procGrid().x << ' ' << d.procGrid().y << ' '
         << d.procGrid().z << "\n"
         << "steps " << solver.stepsDone() << "\n";
      // v2 block table: each writing rank's owned global sub-box, the key
      // to rank-count-independent (splice) restore.
      for (int r = 0; r < comm.size(); ++r) {
        const Box3 b = d.blockOf(r);
        os << "block " << r << ' ' << b.lo.x << ' ' << b.lo.y << ' ' << b.lo.z
           << ' ' << b.hi.x << ' ' << b.hi.y << ' ' << b.hi.z << "\n";
      }
      os.flush();
      if (!os) throw Error("group checkpoint: manifest write failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      throw Error("group checkpoint: cannot commit manifest '" + path + "'");
    }
  }
  comm.barrier();  // manifest visible before anyone reports success
}

/// Restore a group checkpoint.  Throws when the manifest does not match
/// the live decomposition (wrong rank count / grid / mesh).  Collective.
template <class D, class S>
void load_group_checkpoint(DistributedSolver<D, S>& solver,
                           const std::string& prefix) {
  obs::TraceScope restoreScope("checkpoint.group_restore");
  Comm& comm = solver.comm();
  // Every rank parses the manifest (cheap, avoids a broadcast round).
  const GroupManifest m = read_group_manifest(prefix);
  const auto& d = solver.decomposition();
  if (m.ranks != comm.size() || !(m.global == d.globalSize()) ||
      !(m.procGrid == d.procGrid())) {
    throw Error("group checkpoint: decomposition mismatch (checkpoint " +
                std::to_string(m.ranks) + " ranks, live " +
                std::to_string(comm.size()) + ")");
  }
  io::load_checkpoint(group_checkpoint_path(prefix, comm.rank()),
                      solver.block());
  comm.barrier();
}

namespace detail {

/// Copy `region` (global coordinates) of one old block's payload into the
/// live field.  Same-precision same-shift elements are copied raw (encode
/// after decode is lossy for reduced precision, raw copies are bit-exact);
/// anything else goes through the file-shift decode / field-shift encode
/// path, exactly like whole-field cross-precision restore.
template <class S, class FS>
void splice_block_region(PopulationFieldT<S>& f, const Box3& mine,
                         const io::detail::RawCheckpoint& raw,
                         const Box3& oldBox, const Box3& region) {
  const Grid og(oldBox.hi.x - oldBox.lo.x, oldBox.hi.y - oldBox.lo.y,
                oldBox.hi.z - oldBox.lo.z, raw.meta.halo);
  const std::size_t ovol = og.volume();
  const int q = f.q();
  if (raw.payload.size() != ovol * static_cast<std::size_t>(q) * sizeof(FS))
    throw Error("group checkpoint: splice payload size mismatch");
  const FS* in = reinterpret_cast<const FS*>(raw.payload.data());
  bool sameRepr = raw.meta.precisionBits == StorageTraits<S>::kBits;
  for (int i = 0; i < q && sameRepr; ++i)
    if (raw.shift[static_cast<std::size_t>(i)] != f.shift(i)) sameRepr = false;
  const Grid& lg = f.grid();
  for (int qq = 0; qq < q; ++qq) {
    const Real sh = raw.shift[static_cast<std::size_t>(qq)];
    const FS* slab = in + static_cast<std::size_t>(qq) * ovol;
    for (int z = region.lo.z; z < region.hi.z; ++z)
      for (int y = region.lo.y; y < region.hi.y; ++y)
        for (int x = region.lo.x; x < region.hi.x; ++x) {
          const std::size_t oi =
              og.idx(x - oldBox.lo.x, y - oldBox.lo.y, z - oldBox.lo.z);
          const std::size_t ni =
              lg.idx(x - mine.lo.x, y - mine.lo.y, z - mine.lo.z);
          if constexpr (std::is_same_v<S, FS>) {
            if (sameRepr) {
              f.data()[f.slab(qq) + ni] = slab[oi];
              continue;
            }
          }
          f.store(qq, ni, StorageTraits<FS>::decode(slab[oi], sh));
        }
  }
}

}  // namespace detail

/// Rank-count-independent restore: each live rank opens every *old* block
/// whose padded box overlaps its own padded box and splices the overlap
/// region by region.  Two passes give a deterministic result independent
/// of the live decomposition:
///
///   pass 0 — old blocks' *padded* boxes in ascending old-rank order seed
///            the live ghost layer (old ghosts were valid when the
///            generation was taken: saves happen post-step, pre-exchange,
///            exactly like the state a same-layout restore reproduces);
///   pass 1 — old blocks' *interiors* (disjoint) overwrite every in-domain
///            cell, so interior data always wins over any stale ghost.
///
/// Composes with cross-precision checkpoints via the same decode/encode
/// path as load_checkpoint.  Collective.
template <class D, class S>
void load_group_checkpoint_spliced(DistributedSolver<D, S>& solver,
                                   const std::string& prefix,
                                   const GroupManifest& m) {
  obs::TraceScope spliceScope("checkpoint.splice_restore");
  Comm& comm = solver.comm();
  const auto& d = solver.decomposition();
  if (!(m.global == d.globalSize()))
    throw Error("group checkpoint: global-size mismatch, cannot splice '" +
                prefix + "' onto a " + std::to_string(comm.size()) +
                "-rank run");
  // Step counter and A-B parity come from old block 0's header (identical
  // in every block of a committed generation); restore them first so the
  // payload lands in the buffer that was current at save time.
  const io::CheckpointMeta meta0 =
      io::read_checkpoint_meta(group_checkpoint_path(prefix, 0));
  solver.restoreState(meta0.steps, meta0.parity);
  auto& f = solver.f();
  const Grid& lg = f.grid();
  const Box3 mine = solver.ownedBox();
  const int halo = lg.halo;
  const Box3 minePad{{mine.lo.x - halo, mine.lo.y - halo, mine.lo.z - halo},
                     {mine.hi.x + halo, mine.hi.y + halo, mine.hi.z + halo}};
  std::uint64_t blocksRead = 0, cellsSpliced = 0;
  // Old blocks overlapping this rank are read once and reused by pass 1.
  std::vector<std::unique_ptr<io::detail::RawCheckpoint>> cache(
      static_cast<std::size_t>(m.ranks));
  for (int pass = 0; pass < 2; ++pass) {
    for (int r = 0; r < m.ranks; ++r) {
      const Box3& oldBox = m.blocks[static_cast<std::size_t>(r)];
      const Box3 oldPad{
          {oldBox.lo.x - halo, oldBox.lo.y - halo, oldBox.lo.z - halo},
          {oldBox.hi.x + halo, oldBox.hi.y + halo, oldBox.hi.z + halo}};
      const Box3 region = intersect(minePad, pass == 0 ? oldPad : oldBox);
      if (region.hi.x <= region.lo.x || region.hi.y <= region.lo.y ||
          region.hi.z <= region.lo.z)
        continue;
      auto& raw = cache[static_cast<std::size_t>(r)];
      if (!raw) {
        raw = std::make_unique<io::detail::RawCheckpoint>(
            io::detail::read_checkpoint_file(group_checkpoint_path(prefix, r)));
        obs::count("checkpoint.bytes_read", raw->fileBytes);
        if (raw->meta.q != f.q() || raw->meta.halo != halo ||
            raw->meta.steps != meta0.steps || raw->meta.parity != meta0.parity ||
            raw->meta.interior.x != oldBox.hi.x - oldBox.lo.x ||
            raw->meta.interior.y != oldBox.hi.y - oldBox.lo.y ||
            raw->meta.interior.z != oldBox.hi.z - oldBox.lo.z)
          throw Error("group checkpoint: block " + std::to_string(r) +
                      " disagrees with manifest of '" + prefix + "'");
        ++blocksRead;
      }
      switch (raw->meta.precisionBits) {
        case 64:
          detail::splice_block_region<S, double>(f, mine, *raw, oldBox, region);
          break;
        case 32:
          detail::splice_block_region<S, float>(f, mine, *raw, oldBox, region);
          break;
        case 16:
          detail::splice_block_region<S, f16>(f, mine, *raw, oldBox, region);
          break;
        default:
          throw Error("group checkpoint: unknown storage precision " +
                      std::to_string(raw->meta.precisionBits));
      }
      cellsSpliced += static_cast<std::uint64_t>(region.volume());
    }
  }
  obs::count("checkpoint.splice.blocks_read", blocksRead);
  obs::count("checkpoint.splice.cells", cellsSpliced);
  comm.barrier();
}

/// Restore a generation onto whatever decomposition the solver currently
/// has: exact per-rank reload when the layout matches the manifest,
/// splice-restore otherwise.  Collective.
template <class D, class S>
void load_group_checkpoint_elastic(DistributedSolver<D, S>& solver,
                                   const std::string& prefix) {
  const GroupManifest m = read_group_manifest(prefix);
  const auto& d = solver.decomposition();
  if (m.ranks == solver.comm().size() && m.global == d.globalSize() &&
      m.procGrid == d.procGrid()) {
    load_group_checkpoint(solver, prefix);
    return;
  }
  load_group_checkpoint_spliced(solver, prefix, m);
}

/// Gather density and velocity into *global* fields on `root` (other
/// ranks receive empty fields).  Collective.
template <class D, class S>
void gather_macroscopic(DistributedSolver<D, S>& solver, int root,
                        ScalarField& rhoOut, VectorField& uOut) {
  Comm& comm = solver.comm();
  const Grid& lg = solver.localGrid();
  // Local macroscopic block (read through the block, so an in-place
  // backend's rotated phase decodes), packed (rho, ux, uy, uz) per cell.
  ScalarField rho(lg);
  VectorField u(lg);
  solver.block().computeMacroscopic(rho, u);
  std::vector<Real> buf(lg.interiorVolume() * 4);
  std::size_t k = 0;
  for (int z = 0; z < lg.nz; ++z)
    for (int y = 0; y < lg.ny; ++y)
      for (int x = 0; x < lg.nx; ++x) {
        const Vec3 v = u.at(x, y, z);
        buf[k++] = rho(x, y, z);
        buf[k++] = v.x;
        buf[k++] = v.y;
        buf[k++] = v.z;
      }

  // Variable-size gatherv over the collective layer: receives are posted
  // up front on the root, so one slow rank cannot serialize the rest.
  const auto& d = solver.decomposition();
  std::vector<std::size_t> counts(static_cast<std::size_t>(comm.size()));
  std::size_t totalCount = 0;
  for (int r = 0; r < comm.size(); ++r) {
    counts[static_cast<std::size_t>(r)] =
        static_cast<std::size_t>(d.blockOf(r).volume()) * 4;
    totalCount += counts[static_cast<std::size_t>(r)];
  }
  coll::Collectives cs(comm);
  if (comm.rank() != root) {
    cs.gatherv<Real>(root, buf, counts, {});
    return;
  }
  std::vector<Real> all(totalCount);
  cs.gatherv<Real>(root, buf, counts, all);
  const Int3 g = d.globalSize();
  Grid gg(g.x, g.y, g.z);
  rhoOut = ScalarField(gg);
  uOut = VectorField(gg);
  std::size_t j = 0;
  for (int r = 0; r < comm.size(); ++r) {
    const Box3 block = d.blockOf(r);
    for (int z = block.lo.z; z < block.hi.z; ++z)
      for (int y = block.lo.y; y < block.hi.y; ++y)
        for (int x = block.lo.x; x < block.hi.x; ++x) {
          rhoOut(x, y, z) = all[j];
          uOut.set(x, y, z, {all[j + 1], all[j + 2], all[j + 3]});
          j += 4;
        }
  }
}

/// Gather to `root` and write one VTK file with density + velocity.
template <class D, class S>
void write_vtk_gathered(DistributedSolver<D, S>& solver, int root,
                        const std::string& path) {
  ScalarField rho;
  VectorField u;
  gather_macroscopic(solver, root, rho, u);
  if (solver.comm().rank() != root) return;
  io::VtkWriter vtk(rho.grid());
  vtk.addScalar("density", rho);
  vtk.addVector("velocity", u);
  vtk.write(path);
}

}  // namespace swlb::runtime
