// Even-parity codec: one check bit per 64-bit word.
//
// Detects any odd number of bit flips; an even number of flips passes
// undetected (silent data corruption). This matches the paper's
// protection level (2): "a parity-protected SRAM" whose DUE probability
// is P(1 flip) and SDC probability is P(>=2 flips).
#pragma once

#include <cstdint>

#include "ftspm/ecc/codec.h"

namespace ftspm {

/// A stored parity-protected word: 64 data bits + 1 even-parity bit.
/// Physical bit indices: 0..63 = data (LSB first), 64 = parity.
struct ParityWord {
  std::uint64_t data = 0;
  std::uint8_t parity = 0;  ///< Only bit 0 is meaningful.
};

class ParityCodec {
 public:
  static constexpr std::uint32_t kCodewordBits = 65;

  /// Encodes `data` with even parity (parity bit makes total popcount
  /// even).
  static ParityWord encode(std::uint64_t data) noexcept;

  /// Checks parity. Detected mismatch yields DecodeStatus::Detected with
  /// the raw (uncorrected) data; a clean check returns the data as-is.
  static DecodeResult decode(const ParityWord& word) noexcept;

  /// Classifies an error pattern without touching stored data: an odd
  /// number of flipped bits (data + parity) trips the check, an even
  /// number passes. `parity_mask` is 1 when the parity bit flipped.
  /// Equivalent to encode(x) -> flip -> decode for every x (linearity).
  /// The campaign engines skip even this call: a parity word's whole
  /// verdict is its syndrome bit, parity64(data_mask) ^ (parity_mask &
  /// 1), which they compute in place.
  static PatternDecode classify_pattern(std::uint64_t data_mask,
                                        std::uint8_t parity_mask) noexcept;

  /// Flips physical bit `bit` (0..64) in place. Used by fault injection.
  static void flip_bit(ParityWord& word, std::uint32_t bit);
};

}  // namespace ftspm
