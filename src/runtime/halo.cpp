#include "runtime/halo.hpp"

#include <algorithm>

#include "core/backend.hpp"

namespace swlb::runtime {

HaloMode halo_mode_for(const std::string& backend, HaloMode wanted) {
  const BackendInfo* info = find_backend_info(backend);
  return !info || (info->caps.subRange && !info->caps.inPlaceStreaming)
             ? wanted
             : HaloMode::Sequential;
}

namespace {
/// Forward tag of a strip sent toward (dx, dy): 0..8.
int tagOf(int dx, int dy) { return (dx + 1) * 3 + (dy + 1); }
}  // namespace

HaloPlan::HaloPlan(const Decomposition& decomp, int block,
                   const Periodicity& periodic, const Grid& localGrid)
    : grid_(localGrid) {
  if (localGrid.halo != 1)
    throw Error("HaloPlan: only halo width 1 is supported");
  if (decomp.procGrid().z != 1)
    throw Error("HaloPlan: z axis must not be decomposed (paper's 2-D xy scheme)");

  const Int3 myCoords = decomp.coordsOf(block);
  const int nx = localGrid.nx, ny = localGrid.ny, nz = localGrid.nz;

  for (int dy = -1; dy <= 1; ++dy)
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const int peer = decomp.rankOf({myCoords.x + dx, myCoords.y + dy, myCoords.z},
                                     periodic.x, periodic.y, periodic.z);
      if (peer < 0) continue;

      Link n;
      n.peer = peer;
      n.dx = dx;
      n.dy = dy;
      // Strips span the full z extent including the z halo so corner pulls
      // across the subdomain edge see wrapped/valid data.
      const int zLo = -1, zHi = nz + 1;
      auto xRange = [&](int d, bool send, int& lo, int& hi) {
        if (d == 0) {
          lo = 0;
          hi = nx;
        } else if (send) {
          lo = d < 0 ? 0 : nx - 1;
          hi = lo + 1;
        } else {
          lo = d < 0 ? -1 : nx;
          hi = lo + 1;
        }
      };
      auto yRange = [&](int d, bool send, int& lo, int& hi) {
        if (d == 0) {
          lo = 0;
          hi = ny;
        } else if (send) {
          lo = d < 0 ? 0 : ny - 1;
          hi = lo + 1;
        } else {
          lo = d < 0 ? -1 : ny;
          hi = lo + 1;
        }
      };
      xRange(dx, true, n.sendBox.lo.x, n.sendBox.hi.x);
      yRange(dy, true, n.sendBox.lo.y, n.sendBox.hi.y);
      n.sendBox.lo.z = zLo;
      n.sendBox.hi.z = zHi;
      xRange(dx, false, n.recvBox.lo.x, n.recvBox.hi.x);
      yRange(dy, false, n.recvBox.lo.y, n.recvBox.hi.y);
      n.recvBox.lo.z = zLo;
      n.recvBox.hi.z = zHi;
      // The message I receive from the neighbour in direction (dx, dy) was
      // sent by it toward (-dx, -dy) from its own point of view... which
      // is the direction from it to me; its tag is tagOf of *its* send
      // direction = tagOf(-dx, -dy).
      n.sendTag = tagOf(dx, dy);
      n.recvTag = tagOf(-dx, -dy);
      if (dx != 0) decomposedX_ = true;
      if (dy != 0) decomposedY_ = true;
      links_.push_back(n);
    }
}

Box3 HaloPlan::innerBox() const {
  // Clamped, so a one-cell-wide block has an empty inner box and a shell
  // that sweeps each cell once.
  Box3 b = grid_.interior();
  if (decomposedX_) {
    b.lo.x += 1;
    b.hi.x = std::max(b.lo.x, b.hi.x - 1);
  }
  if (decomposedY_) {
    b.lo.y += 1;
    b.hi.y = std::max(b.lo.y, b.hi.y - 1);
  }
  return b;
}

std::vector<Box3> HaloPlan::boundaryShell() const {
  std::vector<Box3> shell;
  const Box3 inner = innerBox();
  const Box3 full = grid_.interior();
  if (decomposedX_) {
    shell.push_back({{full.lo.x, full.lo.y, full.lo.z}, {inner.lo.x, full.hi.y, full.hi.z}});
    shell.push_back({{inner.hi.x, full.lo.y, full.lo.z}, {full.hi.x, full.hi.y, full.hi.z}});
  }
  if (decomposedY_) {
    shell.push_back({{inner.lo.x, full.lo.y, full.lo.z}, {inner.hi.x, inner.lo.y, full.hi.z}});
    shell.push_back({{inner.lo.x, inner.hi.y, full.lo.z}, {inner.hi.x, full.hi.y, full.hi.z}});
  }
  // Drop empty boxes (tiny blocks).
  std::erase_if(shell, [](const Box3& b) { return b.empty(); });
  return shell;
}

std::size_t HaloPlan::bytesPerExchange(int q, std::size_t elemBytes) const {
  std::size_t bytes = 0;
  for (const auto& n : links_)
    bytes += static_cast<std::size_t>(n.sendBox.volume()) * q * elemBytes;
  return bytes;
}

}  // namespace swlb::runtime
