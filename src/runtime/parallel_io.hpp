// Parallel I/O for distributed runs (paper §IV-B: "the I/O layer provides
// support ... with several options such as group I/O and MPI I/O, with
// addition of a checkpoint and restart controller").
//
// Group checkpointing writes one checksummed file per block plus a root
// manifest describing the block layout; an exact restart needs the same
// patch grid (any rank count), a spliced one any layout of the same
// global box.  Field output is gathered to a root rank and written with
// the serial writers.
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

/// Per-block checkpoint path under a common prefix (the name predates
/// several blocks per rank: with one block per rank, b is the rank).
inline std::string group_checkpoint_path(const std::string& prefix, int block) {
  return prefix + ".rank" + std::to_string(block) + ".ckpt";
}
inline std::string group_manifest_path(const std::string& prefix) {
  return prefix + ".manifest";
}

/// Parsed group-checkpoint manifest.  Version 2 records every block's
/// global sub-box, which is what makes restore layout-independent: a
/// survivor set of any size can map old blocks onto a new layout.
/// Version-1 manifests (no block list) derive the blocks from the recorded
/// grid, so old generations stay restorable.  The `ranks` and `procgrid`
/// lines count and arrange blocks; with one block per rank they are the
/// rank count and process grid they were named for.
struct GroupManifest {
  int version = 0;
  int ranks = 0;     ///< block count
  Int3 global{};
  Int3 procGrid{};   ///< patch grid
  std::uint64_t steps = 0;
  std::vector<Box3> blocks;  ///< global sub-box per block
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

namespace detail {

/// Whether a manifest describes the live block layout, so every block
/// reloads its own file.
inline bool same_layout(const GroupManifest& m, const Decomposition& d) {
  return m.ranks == d.rankCount() && m.global == d.globalSize() &&
         m.procGrid == d.procGrid();
}

inline Box3 padded(const Box3& b, int halo) {
  return {{b.lo.x - halo, b.lo.y - halo, b.lo.z - halo},
          {b.hi.x + halo, b.hi.y + halo, b.hi.z + halo}};
}

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

/// Write one checkpoint file per block plus the root manifest.  Collective.
/// The manifest is the generation's commit record: it is written (atomic
/// tmp-then-rename) only after a barrier proves every block landed, so a
/// crash mid-save can leave stray block files but never a manifest that
/// points at an incomplete generation.  With one block per rank the
/// generation is byte-identical to a per-rank one.
template <class D, class S>
void save_group_checkpoint(DistributedSolver<D, S>& solver,
                           const std::string& prefix) {
  obs::TraceScope saveScope("checkpoint.group_save");
  Comm& comm = solver.comm();
  solver.forEachBlock([&](int id, const Box3&, const Solver<D, S>& b) {
    io::save_checkpoint(group_checkpoint_path(prefix, id), b);
  });
  comm.barrier();  // every block durable before the manifest commits them
  if (comm.rank() == 0) {
    const std::string path = group_manifest_path(prefix);
    const std::string tmp = path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::trunc);
      if (!os) throw Error("group checkpoint: cannot write manifest");
      const Decomposition& d = solver.decomposition();
      os << "swlb-group-checkpoint 2\n"
         << "ranks " << d.rankCount() << "\n"
         << "global " << d.globalSize().x << ' ' << d.globalSize().y << ' '
         << d.globalSize().z << "\n"
         << "procgrid " << d.procGrid().x << ' ' << d.procGrid().y << ' '
         << d.procGrid().z << "\n"
         << "steps " << solver.stepsDone() << "\n";
      // v2 block table: each block's global sub-box, the key to
      // layout-independent (splice) restore.
      for (int b = 0; b < d.rankCount(); ++b) {
        const Box3 box = d.blockOf(b);
        os << "block " << b << ' ' << box.lo.x << ' ' << box.lo.y << ' '
           << box.lo.z << ' ' << box.hi.x << ' ' << box.hi.y << ' '
           << box.hi.z << "\n";
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

/// Restore a group checkpoint onto the patch grid it was taken on, at any
/// rank count.  Throws when the manifest describes another layout.  Every
/// file this rank needs is read and checked before the solver changes, so
/// a rejected generation leaves it as it was.  Collective.
template <class D, class S>
void load_group_checkpoint(DistributedSolver<D, S>& solver,
                           const std::string& prefix) {
  obs::TraceScope restoreScope("checkpoint.group_restore");
  // Every rank parses the manifest (cheap, avoids a broadcast round).
  const GroupManifest m = read_group_manifest(prefix);
  const Decomposition& d = solver.decomposition();
  if (!detail::same_layout(m, d))
    throw Error("group checkpoint: layout mismatch (checkpoint " +
                std::to_string(m.ranks) + " blocks, live " +
                std::to_string(d.rankCount()) + ")");
  std::vector<io::detail::RawCheckpoint> raws;
  solver.forEachBlock([&](int id, const Box3&, const Solver<D, S>& b) {
    obs::TraceScope blockScope("checkpoint.restore");
    raws.push_back(io::detail::read_checkpoint_for(
        group_checkpoint_path(prefix, id), b.f()));
    const io::CheckpointMeta& meta = raws.back().meta;
    if (meta.steps != m.steps || meta.parity != raws.front().meta.parity)
      throw Error("group checkpoint: block " + std::to_string(id) +
                  " disagrees with manifest of '" + prefix + "'");
  });
  if (raws.empty())
    throw Error("group checkpoint: restore before finalizeMask built the "
                "blocks");
  // Parity is restored before the payloads land, in the buffers it selects.
  solver.restoreState(m.steps, raws.front().meta.parity);
  auto raw = raws.begin();
  solver.forEachBlock([&](int, const Box3&, Solver<D, S>& b) {
    io::detail::restore_payload(*raw++, b.f());
  });
  solver.comm().barrier();
}

/// Layout-independent restore: each live block splices every *old* block
/// whose padded box overlaps its own padded box, region by region.  Two
/// passes give a deterministic result independent of the live layout:
///
///   pass 0 — old blocks' *padded* boxes in ascending old-block order seed
///            the live ghost layer (old ghosts were valid when the
///            generation was taken: saves happen post-step, pre-exchange,
///            exactly like the state a same-layout restore reproduces);
///   pass 1 — old blocks' *interiors* (disjoint) overwrite every in-domain
///            cell, so interior data always wins over any stale ghost.
///
/// Every old block this rank needs is read once and checked against the
/// manifest and old block 0's header before the solver changes, so a
/// rejected generation leaves it as it was.  Composes with
/// cross-precision checkpoints via the same decode/encode path as
/// load_checkpoint.  Collective.
template <class D, class S>
void load_group_checkpoint_spliced(DistributedSolver<D, S>& solver,
                                   const std::string& prefix,
                                   const GroupManifest& m) {
  obs::TraceScope spliceScope("checkpoint.splice_restore");
  Comm& comm = solver.comm();
  if (!(m.global == solver.decomposition().globalSize()))
    throw Error("group checkpoint: global-size mismatch, cannot splice '" +
                prefix + "' onto a " + std::to_string(comm.size()) +
                "-rank run");
  // Step counter and A-B parity come from old block 0's header (identical
  // in every block of a committed generation).
  const io::CheckpointMeta meta0 =
      io::read_checkpoint_meta(group_checkpoint_path(prefix, 0));
  std::vector<std::unique_ptr<io::detail::RawCheckpoint>> cache(
      static_cast<std::size_t>(m.ranks));
  std::uint64_t blocksRead = 0, cellsSpliced = 0;
  solver.forEachBlock([&](int, const Box3& mine, const Solver<D, S>& b) {
    const int halo = b.grid().halo;
    for (int r = 0; r < m.ranks; ++r) {
      const Box3& oldBox = m.blocks[static_cast<std::size_t>(r)];
      auto& raw = cache[static_cast<std::size_t>(r)];
      if (raw || intersect(detail::padded(mine, halo),
                           detail::padded(oldBox, halo))
                     .empty())
        continue;
      raw = std::make_unique<io::detail::RawCheckpoint>(
          io::detail::read_checkpoint_file(group_checkpoint_path(prefix, r)));
      obs::count("checkpoint.bytes_read", raw->fileBytes);
      if (raw->meta.q != D::Q || raw->meta.halo != halo ||
          raw->meta.steps != meta0.steps || raw->meta.parity != meta0.parity ||
          raw->meta.interior.x != oldBox.hi.x - oldBox.lo.x ||
          raw->meta.interior.y != oldBox.hi.y - oldBox.lo.y ||
          raw->meta.interior.z != oldBox.hi.z - oldBox.lo.z)
        throw Error("group checkpoint: block " + std::to_string(r) +
                    " disagrees with manifest of '" + prefix + "'");
      ++blocksRead;
    }
  });
  // Restore step and parity first so the payload lands in the buffer that
  // was current at save time.
  solver.restoreState(meta0.steps, meta0.parity);
  solver.forEachBlock([&](int, const Box3& mine, Solver<D, S>& b) {
    auto& f = b.f();
    const int halo = f.grid().halo;
    for (int pass = 0; pass < 2; ++pass)
      for (int r = 0; r < m.ranks; ++r) {
        const Box3& oldBox = m.blocks[static_cast<std::size_t>(r)];
        const Box3 region =
            intersect(detail::padded(mine, halo),
                      pass == 0 ? detail::padded(oldBox, halo) : oldBox);
        if (region.empty()) continue;
        const io::detail::RawCheckpoint& raw =
            *cache[static_cast<std::size_t>(r)];
        switch (raw.meta.precisionBits) {
          case 64:
            detail::splice_block_region<S, double>(f, mine, raw, oldBox,
                                                   region);
            break;
          case 32:
            detail::splice_block_region<S, float>(f, mine, raw, oldBox, region);
            break;
          default:  // read_checkpoint_file accepts 64, 32 or 16
            detail::splice_block_region<S, f16>(f, mine, raw, oldBox, region);
            break;
        }
        cellsSpliced += static_cast<std::uint64_t>(region.volume());
      }
  });
  obs::count("checkpoint.splice.blocks_read", blocksRead);
  obs::count("checkpoint.splice.cells", cellsSpliced);
  comm.barrier();
}

/// Restore a generation onto whatever layout the solver currently has:
/// exact per-block reload when the patch grid matches the manifest,
/// splice-restore otherwise.  Collective.
template <class D, class S>
void load_group_checkpoint_elastic(DistributedSolver<D, S>& solver,
                                   const std::string& prefix) {
  const GroupManifest m = read_group_manifest(prefix);
  if (detail::same_layout(m, solver.decomposition())) {
    load_group_checkpoint(solver, prefix);
    return;
  }
  load_group_checkpoint_spliced(solver, prefix, m);
}

/// Gather density and velocity into *global* fields on `root` (other
/// ranks' fields are left untouched).  Collective.
template <class D, class S>
void gather_macroscopic(DistributedSolver<D, S>& solver, int root,
                        ScalarField& rhoOut, VectorField& uOut) {
  if (solver.comm().rank() == root) {
    const Int3 g = solver.decomposition().globalSize();
    const Grid gg(g.x, g.y, g.z);
    rhoOut = ScalarField(gg);
    uOut = VectorField(gg);
  }
  solver.gatherCells(
      root, 4,
      [](const Solver<D, S>& b, Real* out) {
        // Read through the block, so an in-place backend's rotated phase
        // decodes.
        const Grid& lg = b.grid();
        ScalarField rho(lg);
        VectorField u(lg);
        b.computeMacroscopic(rho, u);
        for (int z = 0; z < lg.nz; ++z)
          for (int y = 0; y < lg.ny; ++y)
            for (int x = 0; x < lg.nx; ++x) {
              const Vec3 v = u.at(x, y, z);
              *out++ = rho(x, y, z);
              *out++ = v.x;
              *out++ = v.y;
              *out++ = v.z;
            }
      },
      [&](int x, int y, int z, const Real* v) {
        rhoOut(x, y, z) = v[0];
        uOut.set(x, y, z, {v[1], v[2], v[3]});
      });
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
