// Storage-precision layer for population fields (DESIGN.md §8).
//
// SunwayLB's fused pull kernel is memory-bandwidth-bound: every step moves
// 2 * Q * sizeof(Real) bytes per cell, and halo, checkpoint and DMA volume
// all scale with the storage element size.  LBM retains engineering
// accuracy when populations are *stored* in reduced precision and
// *collided* in full precision (Sailfish; miniLB; FluidX3D's compressed
// DDFs), provided the stored value is shifted by the lattice weight:
//
//   store_i = Storage(f_i - w_i)        load_i = Real(store_i) + w_i
//
// Near equilibrium f_i ~ w_i * rho with rho ~ 1, so f_i - w_i is a small
// number close to zero where a float (or half) spends its mantissa on the
// physically meaningful deviation instead of on the constant weight.  The
// relative quantization error is bounded by the storage type's unit
// roundoff *of the deviation*, not of the full population.
//
// Storage types: double (lossless, the compatibility default), float, and
// a software IEEE 754 binary16 `f16` (no hardware half assumed).  The
// compute path always gathers/collides in Real (double) precision.
#pragma once

#include <cstdint>
#include <cstring>

#include "core/common.hpp"

namespace swlb {

/// Software IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits).
/// Conversions round to nearest, ties to even; overflow saturates to
/// +/-inf; subnormals are handled exactly.  Storage-only type: arithmetic
/// happens after decoding to Real.
struct f16 {
  std::uint16_t bits = 0;

  f16() = default;
  explicit f16(float f) : bits(fromFloat(f)) {}
  explicit operator float() const { return toFloat(bits); }

  friend constexpr bool operator==(const f16&, const f16&) = default;

  static std::uint16_t fromFloat(float f) {
    std::uint32_t x;
    std::memcpy(&x, &f, sizeof(x));
    const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
    const std::uint32_t absx = x & 0x7FFFFFFFu;
    if (absx >= 0x7F800000u) {  // inf / NaN
      const std::uint16_t payload = absx > 0x7F800000u ? 0x0200u : 0u;
      return static_cast<std::uint16_t>(sign | 0x7C00u | payload);
    }
    if (absx >= 0x47800000u)  // >= 65536: overflows half's range -> inf
      return static_cast<std::uint16_t>(sign | 0x7C00u);
    if (absx < 0x33000000u)  // < 2^-25: underflows to zero (even tie)
      return sign;
    std::uint32_t mant = (absx & 0x007FFFFFu) | 0x00800000u;  // implicit 1
    const int exp = static_cast<int>(absx >> 23) - 127;       // unbiased
    int shift;                                                // mant >> shift
    std::uint16_t half;
    if (exp < -14) {
      // Subnormal half: value = mant * 2^(exp-23), half ulp = 2^-24.
      shift = 13 + (-14 - exp);
      half = sign;
    } else {
      shift = 13;
      half = static_cast<std::uint16_t>(
          sign | ((exp + 15) << 10));
      mant &= 0x007FFFFFu;  // normal: implicit bit lives in the exponent
    }
    std::uint32_t rounded = mant >> shift;
    // Round to nearest, ties to even.
    const std::uint32_t rem = mant & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (rounded & 1u)))
      ++rounded;  // may carry into the exponent field: that is correct
    return static_cast<std::uint16_t>(half + rounded);
  }

  static float toFloat(std::uint16_t h) {
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
    const std::uint32_t exp = (h >> 10) & 0x1Fu;
    std::uint32_t mant = h & 0x03FFu;
    std::uint32_t x;
    if (exp == 0x1Fu) {  // inf / NaN
      x = sign | 0x7F800000u | (mant << 13);
    } else if (exp != 0) {  // normal
      x = sign | ((exp + 112u) << 23) | (mant << 13);
    } else if (mant != 0) {  // subnormal: normalize into a float
      int e = -1;
      do {
        mant <<= 1;
        ++e;
      } while ((mant & 0x0400u) == 0);
      // mant = orig << (e + 1); value = orig * 2^-24, so the float's
      // unbiased exponent is -15 - e  ->  biased 112 - e.
      x = sign | ((112u - e) << 23) | ((mant & 0x03FFu) << 13);
    } else {  // +/- zero
      x = sign;
    }
    float f;
    std::memcpy(&f, &x, sizeof(f));
    return f;
  }
};

/// Encode/decode and metadata for a population storage type.  `decode`
/// and `encode` implement the weight-shifted (DDF-shifting) transform;
/// the shift is zero for identity (double) storage so the default path
/// stays bit-exact with the historical format.
///
/// Valid storage types: exactly `double` ("f64", 8 B, the default —
/// bit-exact reproduction), `float` ("f32", 4 B, ~2x traffic reduction,
/// Ghia-validated) and `f16` ("f16", 2 B, exploratory only).  Per-type
/// constants and their units:
///   * `kBits` — storage width in bits; doubles as the checkpoint
///     precision tag (io/checkpoint.hpp format v2).
///   * `kEpsilon` — dimensionless unit roundoff of the *stored
///     deviation* `f_i - w_i` (half ulp, round-to-nearest): the
///     relative quantization bound the tuner reports in
///     `TuningPlan::advisedQuantError`.
///   * `kMinNormal` — smallest normal magnitude in lattice population
///     units; below it the error floor is absolute
///     (kEpsilon * kMinNormal), not relative.
/// Precision is chosen explicitly (`Solver<D, S>`); the auto-tuner only
/// ever *advises* a storage type, it never switches one (DESIGN.md §9).
template <class S>
struct StorageTraits;

template <>
struct StorageTraits<double> {
  static constexpr const char* name() { return "f64"; }
  static constexpr std::uint32_t kBits = 64;
  /// Unit roundoff of the stored deviation (half ulp, round-to-nearest).
  static constexpr Real kEpsilon = 0x1.0p-53;
  /// Smallest normal magnitude: below it the quantization error is the
  /// fixed subnormal half ulp (kEpsilon * kMinNormal), not relative.
  static constexpr Real kMinNormal = 0x1.0p-1022;
  static Real decode(double s, Real shift) { return s + shift; }
  static double encode(Real f, Real shift) { return f - shift; }
};

template <>
struct StorageTraits<float> {
  static constexpr const char* name() { return "f32"; }
  static constexpr std::uint32_t kBits = 32;
  static constexpr Real kEpsilon = 0x1.0p-24;
  static constexpr Real kMinNormal = 0x1.0p-126;
  static Real decode(float s, Real shift) {
    return static_cast<Real>(s) + shift;
  }
  static float encode(Real f, Real shift) {
    return static_cast<float>(f - shift);
  }
};

template <>
struct StorageTraits<f16> {
  static constexpr const char* name() { return "f16"; }
  static constexpr std::uint32_t kBits = 16;
  static constexpr Real kEpsilon = 0x1.0p-11;
  static constexpr Real kMinNormal = 0x1.0p-14;
  static Real decode(f16 s, Real shift) {
    return static_cast<Real>(static_cast<float>(s)) + shift;
  }
  static f16 encode(Real f, Real shift) {
    return f16(static_cast<float>(f - shift));
  }
};

}  // namespace swlb
