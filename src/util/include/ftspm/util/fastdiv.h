// Division by a runtime-constant divisor without the hardware divider.
//
// The campaign hot loop maps every flipped physical bit to its codeword
// with a divide/modulo by `codeword_bits` — a 64-bit idiv per flip, one
// of the larger single costs in the campaign strike loops. FastDiv64
// precomputes the classic round-up reciprocal (Granlund–Montgomery;
// the same construction libdivide calls the "magic number" path) so the
// divide becomes one 64x64→128 multiply.
//
// Correctness: with d >= 2, let M = ceil(2^64 / d) and e = M*d - 2^64
// (0 <= e < d). Then hi64(n * M) = floor(n/d + n*e/(d*2^64)), which
// equals floor(n/d) whenever n*e < 2^64 — the constructor checks that
// condition against the caller's declared dividend bound and falls back
// to the hardware divide when it cannot be guaranteed, so `divide` is
// exact for every dividend within the bound no matter the divisor.
// tests/util/fastdiv_test.cpp verifies both paths exhaustively around
// the boundaries.
#pragma once

#include <cstdint>

#include "ftspm/util/error.h"

namespace ftspm {

class FastDiv64 {
 public:
  /// Division by 1 (the do-nothing divider); valid to call.
  FastDiv64() = default;

  /// Prepares division by `divisor` (>= 1), exact for every dividend in
  /// [0, max_dividend]. Small divisors against realistic region sizes
  /// (codeword widths of tens of bits, surfaces below ~2^57 bits)
  /// always qualify for the multiply path; anything that cannot be
  /// proven exact keeps the hardware divide.
  explicit FastDiv64(std::uint64_t divisor,
                     std::uint64_t max_dividend = UINT64_MAX)
      : divisor_(divisor) {
    FTSPM_REQUIRE(divisor >= 1, "FastDiv64 divisor must be >= 1");
    if (divisor < 2) return;  // n / 1 == n; the fallback path is free.
    // ceil(2^64 / d): for d not a power of two this is
    // floor((2^64 - 1) / d) + 1; for powers of two the same expression
    // collapses to exactly 2^(64-k).
    const std::uint64_t magic = ~std::uint64_t{0} / divisor + 1;
    // M*d lands in [2^64, 2^64 + d), so the wrapped low word IS e.
    const std::uint64_t error = magic * divisor;
    if (error == 0 || max_dividend <= ~std::uint64_t{0} / error)
      magic_ = magic;
  }

  std::uint64_t divisor() const noexcept { return divisor_; }

  /// True when the multiply path was proven exact at construction.
  bool exact_multiply() const noexcept { return magic_ != 0; }

  /// floor(n / divisor). `n` must be within the constructor's
  /// max_dividend bound (unchecked — this is the hot path).
  std::uint64_t divide(std::uint64_t n) const noexcept {
    if (magic_ != 0)
      return static_cast<std::uint64_t>(
          (static_cast<__uint128_t>(n) * magic_) >> 64);
    return n / divisor_;
  }

  /// n mod divisor, via divide (one multiply-subtract, no idiv).
  std::uint64_t modulo(std::uint64_t n) const noexcept {
    return n - divide(n) * divisor_;
  }

 private:
  std::uint64_t divisor_ = 1;
  std::uint64_t magic_ = 0;  ///< 0 = hardware-divide fallback.
};

}  // namespace ftspm
