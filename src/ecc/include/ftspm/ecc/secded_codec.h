// Hsiao SEC-DED (72,64) codec.
//
// Eight check bits per 64-bit word. The parity-check matrix uses
// distinct odd-weight columns (the 56 weight-3 plus 8 of the weight-5
// 8-bit vectors for data bits; identity columns for check bits), the
// classic Hsiao construction. Properties exercised by tests and by the
// Monte-Carlo fault campaign:
//
//  * any single-bit error (data or check) is corrected;
//  * any double-bit error yields an even-weight non-zero syndrome and is
//    detected-uncorrectable;
//  * triple and higher errors are detected, miscorrected, or (rarely)
//    aliased to a clean syndrome — genuine silent corruption, exactly
//    the behaviour the paper's Eq. 7 charges to SDC.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ftspm/ecc/codec.h"

namespace ftspm {

/// A stored SEC-DED word. Physical bit indices: 0..63 = data bits (LSB
/// first), 64..71 = check bits c0..c7.
struct SecDedWord {
  std::uint64_t data = 0;
  std::uint8_t check = 0;
};

class SecDedCodec {
 public:
  static constexpr std::uint32_t kDataBits = 64;
  static constexpr std::uint32_t kCheckBits = 8;
  static constexpr std::uint32_t kCodewordBits = 72;

  static SecDedWord encode(std::uint64_t data) noexcept;

  /// Full syndrome decode with single-bit correction.
  static DecodeResult decode(const SecDedWord& word) noexcept;

  /// Classifies an error pattern without touching stored data: folds the
  /// flipped bits' H-matrix columns into the syndrome (eight byte-table
  /// lookups, the fold_syndromes kernel) and reads the decode outcome
  /// from a per-syndrome LUT. `data_mask` holds the flipped data bits
  /// (0..63), `check_mask` the flipped check bits c0..c7. Exactly
  /// equivalent to encode(x) -> flip -> decode for every x (linearity);
  /// the campaign engines call it at the point a >= 3-bit pattern is
  /// struck, with encode/flip/decode kept as the oracle it is tested
  /// against.
  static PatternDecode classify_pattern(std::uint64_t data_mask,
                                        std::uint8_t check_mask) noexcept;

  /// Folds `count` error patterns into their 8-bit syndromes:
  /// syndromes[i] = syndrome of (data_masks[i], check_masks[i]), via
  /// the same eight byte-table lookups per pattern classify_pattern
  /// makes. Safe to call concurrently. The campaign engines classify
  /// one pattern at a time; this array form is what the fold kernel
  /// benchmarks time.
  static void fold_syndromes(const std::uint64_t* data_masks,
                             const std::uint8_t* check_masks,
                             std::size_t count,
                             std::uint8_t* syndromes) noexcept;

  /// Name of the fold kernel: always "scalar". Benchmark reports print
  /// it next to their figures.
  static const char* fold_backend() noexcept;

  /// Recomputes the 8 check bits for `data`.
  static std::uint8_t compute_check(std::uint64_t data) noexcept;

  /// Flips physical bit `bit` (0..71) in place.
  static void flip_bit(SecDedWord& word, std::uint32_t bit);

  /// The H-matrix column (8-bit, odd weight) guarding data bit `i`.
  /// Exposed for tests that verify the Hsiao construction.
  static std::uint8_t column(std::uint32_t data_bit) noexcept;

 private:
  /// What the Hsiao decode rule does for one 8-bit syndrome value: the
  /// decode status plus the data-bit correction mask it would apply.
  /// Row `s` of the 256-entry LUT classify_pattern reads fully
  /// determines the outcome of any error pattern folding to syndrome
  /// `s` (combined with the pattern's own data mask for the residual).
  struct SyndromeDecode {
    DecodeStatus status = DecodeStatus::Clean;
    std::uint64_t correction_mask = 0;
  };
  struct Tables;
  static const Tables& tables() noexcept;
};

}  // namespace ftspm
