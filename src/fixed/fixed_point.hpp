#pragma once
// Q-format fixed-point arithmetic mirroring the semantics of Xilinx
// `ap_fixed<W, I>` with saturation (AP_SAT) and round-to-nearest-even on
// narrowing (AP_RND_CONV approximated by round-half-away for speed). The
// FPGA functional model — the Q8.24 instantiation of the Algorithm-2
// core (Q824Num in src/embedding/alg2_core.hpp) — computes in this type
// so the accuracy impact of the hardware numerics is reproduced
// bit-faithfully on the host.
//
// Fixed<IntBits, FracBits>:
//   value = raw / 2^FracBits, raw stored in int64_t,
//   representable range = [-2^(IntBits-1), 2^(IntBits-1) - 2^-FracBits].
// IntBits counts the sign bit, matching ap_fixed's I parameter.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <type_traits>

namespace seqge::fixed {

namespace detail {
// Saturate a wide intermediate to the [lo, hi] raw range.
constexpr std::int64_t saturate(__int128 v, std::int64_t lo,
                                std::int64_t hi) noexcept {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return static_cast<std::int64_t>(v);
}
}  // namespace detail

template <int IntBits, int FracBits>
class Fixed {
  static_assert(IntBits >= 1, "need at least the sign bit");
  static_assert(FracBits >= 0, "fractional bits must be non-negative");
  static_assert(IntBits + FracBits <= 48,
                "raw must fit int64 with headroom for products");

 public:
  static constexpr int kIntBits = IntBits;
  static constexpr int kFracBits = FracBits;
  static constexpr int kWidth = IntBits + FracBits;
  static constexpr std::int64_t kOne = std::int64_t{1} << FracBits;
  static constexpr std::int64_t kRawMax =
      (std::int64_t{1} << (kWidth - 1)) - 1;
  static constexpr std::int64_t kRawMin = -(std::int64_t{1} << (kWidth - 1));

  constexpr Fixed() noexcept = default;

  /// Construct from a double, rounding to nearest and saturating.
  static constexpr Fixed from_double(double v) noexcept {
    // llround saturates UB-free only in-range; clamp in double first.
    constexpr double hi = static_cast<double>(kRawMax);
    constexpr double lo = static_cast<double>(kRawMin);
    double scaled = v * static_cast<double>(kOne);
    scaled = std::min(hi, std::max(lo, scaled));
    return from_raw(static_cast<std::int64_t>(std::llround(scaled)));
  }

  /// Construct from the raw underlying integer (no scaling applied).
  static constexpr Fixed from_raw(std::int64_t raw) noexcept {
    Fixed f;
    f.raw_ = raw;
    return f;
  }

  [[nodiscard]] constexpr std::int64_t raw() const noexcept { return raw_; }
  [[nodiscard]] constexpr double to_double() const noexcept {
    return static_cast<double>(raw_) / static_cast<double>(kOne);
  }

  [[nodiscard]] static constexpr Fixed max_value() noexcept {
    return from_raw(kRawMax);
  }
  [[nodiscard]] static constexpr Fixed min_value() noexcept {
    return from_raw(kRawMin);
  }
  /// Smallest positive increment (one LSB).
  [[nodiscard]] static constexpr Fixed epsilon() noexcept {
    return from_raw(1);
  }

  // --- saturating arithmetic -------------------------------------------

  friend constexpr Fixed operator+(Fixed a, Fixed b) noexcept {
    return from_raw(detail::saturate(
        static_cast<__int128>(a.raw_) + b.raw_, kRawMin, kRawMax));
  }
  friend constexpr Fixed operator-(Fixed a, Fixed b) noexcept {
    return from_raw(detail::saturate(
        static_cast<__int128>(a.raw_) - b.raw_, kRawMin, kRawMax));
  }
  friend constexpr Fixed operator-(Fixed a) noexcept {
    return from_raw(detail::saturate(-static_cast<__int128>(a.raw_), kRawMin,
                                     kRawMax));
  }

  /// Full-precision product then round-half-away-from-zero back to
  /// FracBits — matches a DSP48 multiply followed by AP_RND truncation.
  friend constexpr Fixed operator*(Fixed a, Fixed b) noexcept {
    __int128 prod = static_cast<__int128>(a.raw_) * b.raw_;
    const __int128 half = __int128{1} << (FracBits - 1);
    prod += (prod >= 0) ? half : -half;
    prod >>= FracBits;
    return from_raw(detail::saturate(prod, kRawMin, kRawMax));
  }

  /// Division via pre-shifted dividend; used only by the scalar
  /// reciprocal in Stage 4 (hpht_inv), never in the inner MAC loops.
  friend constexpr Fixed operator/(Fixed a, Fixed b) noexcept {
    if (b.raw_ == 0) {
      return a.raw_ >= 0 ? max_value() : min_value();
    }
    __int128 num = static_cast<__int128>(a.raw_) << FracBits;
    __int128 q = num / b.raw_;
    return from_raw(detail::saturate(q, kRawMin, kRawMax));
  }

  constexpr Fixed& operator+=(Fixed b) noexcept { return *this = *this + b; }
  constexpr Fixed& operator-=(Fixed b) noexcept { return *this = *this - b; }
  constexpr Fixed& operator*=(Fixed b) noexcept { return *this = *this * b; }

  friend constexpr bool operator==(Fixed a, Fixed b) noexcept {
    return a.raw_ == b.raw_;
  }
  friend constexpr auto operator<=>(Fixed a, Fixed b) noexcept {
    return a.raw_ <=> b.raw_;
  }

  friend std::ostream& operator<<(std::ostream& os, Fixed f) {
    return os << f.to_double();
  }

 private:
  std::int64_t raw_ = 0;
};

/// Fused multiply-accumulate with a wide (non-saturating) accumulator,
/// mirroring an HLS accumulation register wider than the operand type.
/// Use WideAcc for dot products, then narrow once at the end.
template <int IntBits, int FracBits>
class WideAcc {
 public:
  using Value = Fixed<IntBits, FracBits>;

  constexpr void mac(Value a, Value b) noexcept {
    acc_ += static_cast<__int128>(a.raw()) * b.raw();
  }
  constexpr void add(Value a) noexcept {
    acc_ += static_cast<__int128>(a.raw()) << FracBits;
  }
  constexpr void reset() noexcept { acc_ = 0; }

  /// Narrow back to the operand format with rounding + saturation.
  [[nodiscard]] constexpr Value result() const noexcept {
    __int128 v = acc_;
    const __int128 half = __int128{1} << (FracBits - 1);
    v += (v >= 0) ? half : -half;
    v >>= FracBits;
    return Value::from_raw(
        detail::saturate(v, Value::kRawMin, Value::kRawMax));
  }

 private:
  __int128 acc_ = 0;
};

/// The numeric format used by the accelerator core. 8 integer bits
/// (incl. sign) and 24 fractional bits: embeddings and P entries stay in
/// (-128, 128) with ~6e-8 resolution — comfortably covers the dynamic
/// range observed in training while fitting a 32-bit BRAM word.
using CoreFixed = Fixed<8, 24>;
using CoreAcc = WideAcc<8, 24>;

}  // namespace seqge::fixed
