// Checkpoint/restart controller (paper §IV-B: "a checkpoint and restart
// controller which enables fast recover from system-level or hardware
// fault").  Versioned binary format with an FNV-1a payload checksum.
//
// Format v2 records the population *storage* precision (64/32/16 bits)
// plus the per-direction shift table, so a checkpoint written by a
// reduced-precision run is self-contained: loading into a field of a
// different storage type converts explicitly (decode with the file's
// shift, re-encode with the field's) instead of reinterpreting bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/field.hpp"
#include "core/precision.hpp"
#include "core/solver.hpp"
#include "obs/context.hpp"

namespace swlb::io {

struct CheckpointMeta {
  std::uint32_t version = 0;
  Int3 interior;
  int halo = 0;
  int q = 0;
  std::uint64_t steps = 0;
  int parity = 0;
  /// Storage element width of the payload (64, 32 or 16).
  std::uint32_t precisionBits = 64;
};

inline constexpr std::uint32_t kCheckpointVersion = 2;

namespace detail {

/// A fully read + validated checkpoint file (header fields, shift table,
/// raw payload bytes) — the precision-agnostic half of load_checkpoint.
struct RawCheckpoint {
  CheckpointMeta meta;
  std::vector<double> shift;          ///< per-direction storage shift
  std::vector<std::uint8_t> payload;  ///< raw storage elements
  std::size_t fileBytes = 0;          ///< total on-disk size
};

/// Atomic write (tmp + fsync + rename) of a v2 checkpoint file; counts
/// checkpoint.bytes_written.  `payload` holds raw storage elements.
void write_checkpoint_file(const std::string& path, const void* payload,
                           std::size_t payloadBytes, const Grid& grid, int q,
                           std::uint64_t steps, int parity,
                           std::uint32_t precisionBits, const Real* shift);

/// Read + validate (magic, version, payload size against the header and
/// the file, checksum) a checkpoint file.  Allocates nothing before the
/// size checks pass.
RawCheckpoint read_checkpoint_file(const std::string& path);

}  // namespace detail

/// Save the population field plus solver step state.  The write is atomic:
/// data goes to `<path>.tmp` (flushed/fsynced) and is renamed into place,
/// so a crash mid-save never corrupts an existing checkpoint at `path`.
template <class S>
void save_checkpoint(const std::string& path, const PopulationFieldT<S>& f,
                     std::uint64_t steps, int parity) {
  detail::write_checkpoint_file(path, f.data(), f.bytes(), f.grid(), f.q(),
                                steps, parity, StorageTraits<S>::kBits,
                                f.shiftData());
}

/// Header only (cheap inspection before a full restore).
CheckpointMeta read_checkpoint_meta(const std::string& path);

namespace detail {

/// The one file read of a restore into `f`: read and validate `path`,
/// count checkpoint.bytes_read, and reject a file written for another
/// grid or Q.
template <class S>
RawCheckpoint read_checkpoint_for(const std::string& path,
                                  const PopulationFieldT<S>& f) {
  RawCheckpoint raw = read_checkpoint_file(path);
  obs::count("checkpoint.bytes_read", raw.fileBytes);
  const Grid& g = f.grid();
  if (raw.meta.interior.x != g.nx || raw.meta.interior.y != g.ny ||
      raw.meta.interior.z != g.nz || raw.meta.halo != g.halo ||
      raw.meta.q != f.q()) {
    throw Error("checkpoint: geometry mismatch restoring '" + path + "'");
  }
  return raw;
}

/// Copy the payload of `raw` into `f`, whose geometry (hence payload
/// size) it matches.  Other precisions or shifts decode each element with
/// the *file's* shift and re-encode it with the field's.
template <class S>
void restore_payload(const RawCheckpoint& raw, PopulationFieldT<S>& f) {
  const int q = f.q();
  const bool sameShift =
      std::equal(raw.shift.begin(), raw.shift.end(), f.shiftData());
  if (raw.meta.precisionBits == StorageTraits<S>::kBits && sameShift) {
    std::memcpy(f.data(), raw.payload.data(), f.bytes());
    return;
  }
  const std::size_t vol = f.grid().volume();
  auto convert = [&](auto tag) {
    using FS = decltype(tag);
    const FS* in = reinterpret_cast<const FS*>(raw.payload.data());
    for (int qq = 0; qq < q; ++qq) {
      const Real sh = raw.shift[static_cast<std::size_t>(qq)];
      const FS* slab = in + static_cast<std::size_t>(qq) * vol;
      for (std::size_t c = 0; c < vol; ++c)
        f.store(qq, c, StorageTraits<FS>::decode(slab[c], sh));
    }
  };
  switch (raw.meta.precisionBits) {
    case 64: convert(double{}); break;
    case 32: convert(float{}); break;
    default: convert(f16{}); break;  // read_checkpoint_file: 64, 32 or 16
  }
}

}  // namespace detail

/// Restore into a field of the *same* grid and Q; throws on any geometry
/// mismatch, corrupt checksum, or unsupported version.  A payload written
/// with the field's own storage type and shift is restored bit-for-bit;
/// any other precision is converted value by value (file decode -> field
/// encode), never reinterpreted.
template <class S>
CheckpointMeta load_checkpoint(const std::string& path,
                               PopulationFieldT<S>& f) {
  obs::TraceScope restoreScope("checkpoint.restore");
  const detail::RawCheckpoint raw = detail::read_checkpoint_for(path, f);
  detail::restore_payload(raw, f);
  return raw.meta;
}

/// Solver-level convenience wrappers.  No checkpoint carries the rotated
/// layout an in-place solver holds after an odd step (restore accepts
/// parity 1 only for the A-B pair): saving one throws, writing nothing.
template <class D, class S>
void save_checkpoint(const std::string& path, const Solver<D, S>& solver) {
  if (solver.inPlace() && solver.parity() == 1)
    throw Error("checkpoint: in-place backend '" + solver.backendName() +
                "' is at an odd phase; save at an even step");
  save_checkpoint(path, solver.f(), solver.stepsDone(), solver.parity());
}

/// Whether a checkpoint `interval` steps apart is due: at each multiple
/// of the interval, or — for an in-place solver, whose odd phases are not
/// checkpointable — one step after a multiple that fell on an odd phase.
/// Any solver with stepsDone(), parity() and inPlace() (a Solver or a
/// runtime::DistributedSolver, which also defers migrations this way).
template <class Stepper>
bool checkpoint_due(const Stepper& solver, std::uint64_t interval) {
  std::uint64_t step = solver.stepsDone();
  if (solver.inPlace() && solver.parity() == 1) return false;
  if (solver.inPlace() && step % interval != 0) --step;
  return step != 0 && step % interval == 0;
}

/// One file read; every check (file, geometry, parity) runs before the
/// solver changes, so a rejected checkpoint leaves it as it was.  Parity
/// is restored before the payload lands, in the buffer it selects.
template <class D, class S>
void load_checkpoint(const std::string& path, Solver<D, S>& solver) {
  obs::TraceScope restoreScope("checkpoint.restore");
  const detail::RawCheckpoint raw =
      detail::read_checkpoint_for(path, solver.f());  // both buffers alike
  solver.restoreState(raw.meta.steps, raw.meta.parity);
  detail::restore_payload(raw, solver.f());
}

/// The step number in a checkpoint file name: `digits` as an unsigned
/// 64-bit value, or nullopt when it is empty, holds a non-digit or
/// overflows.  The directory scans skip any name it cannot parse.
std::optional<std::uint64_t> parse_step(std::string_view digits);

/// FNV-1a 64-bit hash used for the payload checksum (delegates to
/// swlb::fnv1a_hash, shared with the runtime's checksummed messaging).
std::uint64_t fnv1a(const void* data, std::size_t bytes);

}  // namespace swlb::io
