// Population and scalar fields over a halo-padded Cartesian grid.
//
// The production layout is structure-of-arrays (SoA): all populations of
// one direction are contiguous, which is what makes the DMA transfers of
// the CPE kernels contiguous (paper §IV-A/C).  An array-of-structures
// (AoS) field is provided as the baseline the paper argues against.
//
// Populations can be *stored* in reduced precision (float / f16) while
// all arithmetic stays in Real: PopulationFieldT<S> keeps one storage
// element per population and decodes/encodes through the weight-shifted
// transform of core/precision.hpp on every access.  PopulationField is
// the identity (double) instantiation, whose accessors return plain
// Real& and whose bytes are bit-compatible with the historical format.
#pragma once

#include <type_traits>
#include <vector>

#include "core/common.hpp"
#include "core/precision.hpp"

namespace swlb {

/// Local Cartesian grid: nx*ny*nz interior cells plus a halo layer of
/// configurable width on every side.  Interior coordinates run over
/// [0, n); halo cells have coordinates in [-halo, 0) or [n, n+halo).
struct Grid {
  int nx = 0, ny = 0, nz = 0;
  int halo = 1;

  constexpr Grid() = default;
  constexpr Grid(int nx_, int ny_, int nz_, int halo_ = 1)
      : nx(nx_), ny(ny_), nz(nz_), halo(halo_) {}

  constexpr int sx() const { return nx + 2 * halo; }
  constexpr int sy() const { return ny + 2 * halo; }
  constexpr int sz() const { return nz + 2 * halo; }
  constexpr std::size_t volume() const {
    return static_cast<std::size_t>(sx()) * sy() * sz();
  }
  constexpr std::size_t interiorVolume() const {
    return static_cast<std::size_t>(nx) * ny * nz;
  }

  /// Linear index of cell (x, y, z); x is the fastest-varying axis.
  constexpr std::size_t idx(int x, int y, int z) const {
    SWLB_ASSERT(x >= -halo && x < nx + halo);
    SWLB_ASSERT(y >= -halo && y < ny + halo);
    SWLB_ASSERT(z >= -halo && z < nz + halo);
    return (static_cast<std::size_t>(z + halo) * sy() + (y + halo)) * sx() +
           (x + halo);
  }

  constexpr Box3 interior() const { return {{0, 0, 0}, {nx, ny, nz}}; }
  friend constexpr bool operator==(const Grid&, const Grid&) = default;
};

namespace detail {

/// Writable view of one stored population: decodes to Real on read,
/// encodes (with the direction's weight shift) on write.  Returned by the
/// non-const accessors of reduced-precision fields so existing kernel
/// code (`dst(i, x, y, z) = v`, `f(i, x, y, z) += d`) works unchanged.
template <class S>
class StorageRef {
 public:
  StorageRef(S* p, Real shift) : p_(p), shift_(shift) {}

  operator Real() const { return StorageTraits<S>::decode(*p_, shift_); }
  StorageRef& operator=(Real v) {
    *p_ = StorageTraits<S>::encode(v, shift_);
    return *this;
  }
  StorageRef& operator=(const StorageRef& o) {
    return *this = static_cast<Real>(o);
  }
  StorageRef& operator+=(Real v) { return *this = static_cast<Real>(*this) + v; }
  StorageRef& operator-=(Real v) { return *this = static_cast<Real>(*this) - v; }

 private:
  S* p_;
  Real shift_;
};

}  // namespace detail

/// SoA population field: f[q] is one contiguous block over the grid.
///
/// `S` is the storage element type (double, float, or f16).  Reads decode
/// `Real(stored) + shift[q]`, writes encode `S(value - shift[q])`; the
/// per-direction shift is normally the lattice weight (setShift(D::w)).
/// Identity storage (S == Real) bypasses the transform entirely — raw
/// references, no arithmetic — so the default PopulationField behaves
/// exactly as it always has, bit for bit.
template <class S>
class PopulationFieldT {
 public:
  using Storage = S;
  /// Identity storage: no shift, accessors hand out raw Real references.
  static constexpr bool kIdentityStorage = std::is_same_v<S, Real>;

  PopulationFieldT() = default;
  PopulationFieldT(const Grid& grid, int q)
      : grid_(grid), q_(q), data_(grid.volume() * q, S{}), shift_(q, Real(0)) {}

  const Grid& grid() const { return grid_; }
  int q() const { return q_; }

  /// Install the per-direction storage shift (normally the lattice
  /// weights).  Must be called before any population is written; identity
  /// storage ignores the shift (the transform is a no-op there).
  void setShift(const Real* w) {
    for (int i = 0; i < q_; ++i)
      shift_[static_cast<std::size_t>(i)] = kIdentityStorage ? Real(0) : w[i];
  }
  Real shift(int q) const { return shift_[static_cast<std::size_t>(q)]; }
  const Real* shiftData() const { return shift_.data(); }

  using reference =
      std::conditional_t<kIdentityStorage, Real&, detail::StorageRef<S>>;

  reference operator()(int q, int x, int y, int z) {
    return at(q, grid_.idx(x, y, z));
  }
  Real operator()(int q, int x, int y, int z) const {
    return load(q, grid_.idx(x, y, z));
  }
  reference at(int q, std::size_t cell) {
    if constexpr (kIdentityStorage) {
      return data_[slab(q) + cell];
    } else {
      return detail::StorageRef<S>(&data_[slab(q) + cell],
                                   shift_[static_cast<std::size_t>(q)]);
    }
  }
  Real at(int q, std::size_t cell) const { return load(q, cell); }

  /// Decode one raw storage element of a direction with storage shift
  /// `shift` (identity storage: the element itself, untouched).
  static Real decode(S s, [[maybe_unused]] Real shift) {
    if constexpr (kIdentityStorage)
      return s;
    else
      return StorageTraits<S>::decode(s, shift);
  }
  /// Inverse of decode.
  static S encode(Real v, [[maybe_unused]] Real shift) {
    if constexpr (kIdentityStorage)
      return v;
    else
      return StorageTraits<S>::encode(v, shift);
  }

  /// Decoded value of one stored population (cell = grid linear index).
  Real load(int q, std::size_t cell) const {
    return decode(data_[slab(q) + cell], shift_[static_cast<std::size_t>(q)]);
  }
  /// Encode and store one population value.
  void store(int q, std::size_t cell, Real v) {
    data_[slab(q) + cell] = encode(v, shift_[static_cast<std::size_t>(q)]);
  }

  /// Raw (still-encoded) storage element — exact copies between fields of
  /// the same storage type and shift (halo packing, periodic wraps).
  S& raw(int q, int x, int y, int z) {
    return data_[slab(q) + grid_.idx(x, y, z)];
  }
  S raw(int q, int x, int y, int z) const {
    return data_[slab(q) + grid_.idx(x, y, z)];
  }

  /// Start offset of direction q's slab in the linear data array.
  std::size_t slab(int q) const {
    SWLB_ASSERT(q >= 0 && q < q_);
    return static_cast<std::size_t>(q) * grid_.volume();
  }

  S* data() { return data_.data(); }
  const S* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }
  std::size_t bytes() const { return data_.size() * sizeof(S); }
  static constexpr std::size_t elemBytes() { return sizeof(S); }

  void fill(Real v) {
    for (int i = 0; i < q_; ++i)
      for (std::size_t c = 0; c < grid_.volume(); ++c) store(i, c, v);
  }

 private:
  Grid grid_;
  int q_ = 0;
  std::vector<S> data_;
  std::vector<Real> shift_;
};

/// Compatibility alias: the identity (double-storage) population field.
using PopulationField = PopulationFieldT<Real>;

/// AoS population field: all Q populations of one cell are adjacent.
/// Baseline layout only — used by the layout-ablation benchmarks/tests.
class PopulationFieldAoS {
 public:
  PopulationFieldAoS() = default;
  PopulationFieldAoS(const Grid& grid, int q)
      : grid_(grid), q_(q), data_(grid.volume() * q, Real(0)) {}

  const Grid& grid() const { return grid_; }
  int q() const { return q_; }

  Real& operator()(int q, int x, int y, int z) {
    return data_[grid_.idx(x, y, z) * q_ + q];
  }
  Real operator()(int q, int x, int y, int z) const {
    return data_[grid_.idx(x, y, z) * q_ + q];
  }

  Real* data() { return data_.data(); }
  const Real* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }

 private:
  Grid grid_;
  int q_ = 0;
  std::vector<Real> data_;
};

/// Scalar field over the same halo-padded grid (density, Q-criterion, ...).
template <typename T>
class CellField {
 public:
  CellField() = default;
  explicit CellField(const Grid& grid, T init = T())
      : grid_(grid), data_(grid.volume(), init) {}

  const Grid& grid() const { return grid_; }
  T& operator()(int x, int y, int z) { return data_[grid_.idx(x, y, z)]; }
  T operator()(int x, int y, int z) const { return data_[grid_.idx(x, y, z)]; }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }
  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

 private:
  Grid grid_;
  std::vector<T> data_;
};

using ScalarField = CellField<Real>;
using MaskField = CellField<std::uint8_t>;

/// Vector field stored as three scalar slabs (SoA).
class VectorField {
 public:
  VectorField() = default;
  explicit VectorField(const Grid& grid)
      : x_(grid), y_(grid), z_(grid) {}

  const Grid& grid() const { return x_.grid(); }
  ScalarField& x() { return x_; }
  ScalarField& y() { return y_; }
  ScalarField& z() { return z_; }
  const ScalarField& x() const { return x_; }
  const ScalarField& y() const { return y_; }
  const ScalarField& z() const { return z_; }

  Vec3 at(int x, int y, int z) const { return {x_(x, y, z), y_(x, y, z), z_(x, y, z)}; }
  void set(int x, int y, int z, const Vec3& v) {
    x_(x, y, z) = v.x;
    y_(x, y, z) = v.y;
    z_(x, y, z) = v.z;
  }

 private:
  ScalarField x_, y_, z_;
};

}  // namespace swlb
