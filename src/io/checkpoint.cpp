#include "io/checkpoint.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace swlb::io {

namespace {

constexpr char kMagic[8] = {'S', 'W', 'L', 'B', 'C', 'K', 'P', 'T'};

// v2 layout: 8 + 4 + 7*4 = 40 bytes of leading fields, then three 8-byte
// fields at an 8-aligned offset — sizeof(Header) == 64 with no padding
// holes.  The header is still memset to zero before filling so the raw
// write is deterministic byte for byte.
struct Header {
  char magic[8];
  std::uint32_t version;
  std::int32_t nx, ny, nz, halo, q, parity;
  std::uint32_t precision;  ///< storage element width in bits (64/32/16)
  std::uint64_t steps;
  std::uint64_t payloadBytes;
  std::uint64_t checksum;
};
static_assert(sizeof(Header) == 64);

Header readHeader(std::ifstream& in, const std::string& path) {
  Header h;
  std::memset(&h, 0, sizeof(h));
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!in) throw Error("checkpoint: truncated header in '" + path + "'");
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0)
    throw Error("checkpoint: bad magic in '" + path + "'");
  if (h.version != kCheckpointVersion)
    throw Error("checkpoint: unsupported version " + std::to_string(h.version));
  return h;
}

/// True when payloadBytes is exactly the padded volume x Q x element
/// width the header declares: a division chain, so nothing can overflow.
bool payloadFitsHeader(const Header& h) {
  if (h.precision != 64 && h.precision != 32 && h.precision != 16) return false;
  const std::int64_t pad = 2 * std::int64_t{h.halo};
  std::uint64_t rest = h.payloadBytes;
  for (const std::int64_t n : {std::int64_t{h.precision / 8}, std::int64_t{h.q},
                               h.nx + pad, h.ny + pad, h.nz + pad}) {
    if (n <= 0 || rest % static_cast<std::uint64_t>(n) != 0) return false;
    rest /= static_cast<std::uint64_t>(n);
  }
  return rest == 1;
}

CheckpointMeta toMeta(const Header& h) {
  CheckpointMeta m;
  m.version = h.version;
  m.interior = {h.nx, h.ny, h.nz};
  m.halo = h.halo;
  m.q = h.q;
  m.steps = h.steps;
  m.parity = h.parity;
  m.precisionBits = h.precision;
  return m;
}

/// Best-effort durability barrier: flush the file's data to storage so a
/// crash after the rename cannot leave a committed-but-empty checkpoint.
void syncToDisk(const std::string& path) {
#ifdef __unix__
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  return fnv1a_hash(data, bytes);
}

std::optional<std::uint64_t> parse_step(std::string_view digits) {
  std::uint64_t step = 0;
  const char* end = digits.data() + digits.size();
  const auto [stop, ec] = std::from_chars(digits.data(), end, step);
  if (digits.empty() || ec != std::errc() || stop != end) return std::nullopt;
  return step;
}

namespace detail {

void write_checkpoint_file(const std::string& path, const void* payload,
                           std::size_t payloadBytes, const Grid& grid, int q,
                           std::uint64_t steps, int parity,
                           std::uint32_t precisionBits, const Real* shift) {
  obs::TraceScope saveScope("checkpoint.save");
  const std::size_t shiftBytes = static_cast<std::size_t>(q) * sizeof(double);
  obs::count("checkpoint.bytes_written",
             sizeof(Header) + shiftBytes + payloadBytes);
  // Atomic commit: write the full payload to <path>.tmp, flush it, then
  // rename over the destination.  A crash at any point leaves either the
  // previous checkpoint intact or a stale .tmp that load ignores — never a
  // torn file at the committed path.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw Error("checkpoint: cannot open '" + tmp + "' for writing");

    // Zero the whole struct first: any padding the ABI might introduce is
    // written as deterministic zero bytes, so identical state produces
    // byte-identical files.
    Header h;
    std::memset(&h, 0, sizeof(h));
    std::memcpy(h.magic, kMagic, sizeof(kMagic));
    h.version = kCheckpointVersion;
    h.nx = grid.nx;
    h.ny = grid.ny;
    h.nz = grid.nz;
    h.halo = grid.halo;
    h.q = q;
    h.parity = parity;
    h.precision = precisionBits;
    h.steps = steps;
    h.payloadBytes = payloadBytes;
    h.checksum = fnv1a(payload, payloadBytes);

    os.write(reinterpret_cast<const char*>(&h), sizeof(h));
    os.write(reinterpret_cast<const char*>(shift),
             static_cast<std::streamsize>(shiftBytes));
    os.write(reinterpret_cast<const char*>(payload),
             static_cast<std::streamsize>(payloadBytes));
    os.flush();
    if (!os) {
      std::remove(tmp.c_str());
      throw Error("checkpoint: write failed for '" + tmp + "'");
    }
  }
  syncToDisk(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: cannot rename '" + tmp + "' to '" + path + "'");
  }
}

RawCheckpoint read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw Error("checkpoint: cannot open '" + path + "'");
  const auto fileSize = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  const Header h = readHeader(in, path);
  if (h.q <= 0 || h.q > 64)
    throw Error("checkpoint: implausible Q in '" + path + "'");
  // Check the payload size against the header and the file before
  // allocating it.
  const std::uint64_t lead = sizeof(Header) + h.q * sizeof(double);
  if (!payloadFitsHeader(h))
    throw Error("checkpoint: payload size does not match the header of '" +
                path + "'");
  if (h.payloadBytes > (fileSize > lead ? fileSize - lead : 0))
    throw Error("checkpoint: truncated payload in '" + path + "'");
  RawCheckpoint raw;
  raw.meta = toMeta(h);
  raw.shift.resize(static_cast<std::size_t>(h.q));
  in.read(reinterpret_cast<char*>(raw.shift.data()),
          static_cast<std::streamsize>(raw.shift.size() * sizeof(double)));
  raw.payload.resize(h.payloadBytes);
  in.read(reinterpret_cast<char*>(raw.payload.data()),
          static_cast<std::streamsize>(raw.payload.size()));
  if (!in) throw Error("checkpoint: truncated payload in '" + path + "'");
  if (fnv1a(raw.payload.data(), raw.payload.size()) != h.checksum)
    throw Error("checkpoint: checksum mismatch in '" + path + "' (corrupt file)");
  raw.fileBytes =
      sizeof(Header) + raw.shift.size() * sizeof(double) + raw.payload.size();
  return raw;
}

}  // namespace detail

CheckpointMeta read_checkpoint_meta(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("checkpoint: cannot open '" + path + "'");
  return toMeta(readHeader(in, path));
}

}  // namespace swlb::io
