#include "ftspm/ecc/secded_codec.h"

#include <array>
#include <bit>

#include "ftspm/util/bitops.h"
#include "ftspm/util/error.h"

namespace ftspm {

struct SecDedCodec::Tables {
  // H-matrix column for each of the 64 data bits (odd weight, distinct,
  // and distinct from the identity columns used for check bits).
  std::array<std::uint8_t, 64> columns{};
  // For each data bit i, an 8-bit mask of which check equations include
  // it — identical to columns, kept under a second name for clarity.
  // syndrome -> codeword bit index + 1 (0 = no single-bit explanation).
  std::array<std::uint8_t, 256> syndrome_to_bit{};
  // syndrome -> full pattern-decode outcome: the Hsiao decode rule
  // (clean / single-bit correction / detected) plus the data-bit
  // correction mask, precomputed so classify_pattern is one table read.
  std::array<SyndromeDecode, 256> outcome{};
  // byte_fold[j][b]: XOR of the columns guarding data bits 8j..8j+7
  // selected by the bits of b, so a data mask folds into its syndrome
  // with eight lookups whatever its weight.
  std::uint8_t byte_fold[8][256] = {};

  Tables() {
    // Hsiao construction: take all 56 weight-3 bytes, then the first 8
    // weight-5 bytes, in increasing numeric order. Deterministic, so
    // encoded words are stable across builds and platforms.
    std::size_t n = 0;
    for (int v = 1; v < 256 && n < 56; ++v)
      if (std::popcount(static_cast<unsigned>(v)) == 3)
        columns[n++] = static_cast<std::uint8_t>(v);
    for (int v = 1; v < 256 && n < 64; ++v)
      if (std::popcount(static_cast<unsigned>(v)) == 5)
        columns[n++] = static_cast<std::uint8_t>(v);

    syndrome_to_bit.fill(0);
    for (std::uint32_t i = 0; i < 64; ++i)
      syndrome_to_bit[columns[i]] = static_cast<std::uint8_t>(i + 1);
    for (std::uint32_t j = 0; j < 8; ++j)
      syndrome_to_bit[1u << j] = static_cast<std::uint8_t>(64 + j + 1);

    for (std::size_t s = 0; s < outcome.size(); ++s) {
      if (s == 0) {
        outcome[s] = {DecodeStatus::Clean, 0};
      } else if (const std::uint8_t hit = syndrome_to_bit[s]; hit != 0) {
        // A corrected check bit (hit > 64) leaves the data untouched.
        const std::uint32_t bit = hit - 1u;
        outcome[s] = {DecodeStatus::Corrected, bit < 64 ? 1ULL << bit : 0};
      } else {
        outcome[s] = {DecodeStatus::Detected, 0};
      }
    }

    for (std::uint32_t j = 0; j < 8; ++j) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint8_t fold = 0;
        for (std::uint32_t i = 0; i < 8; ++i)
          if (b & (1u << i)) fold ^= columns[8 * j + i];
        byte_fold[j][b] = fold;
      }
    }
  }

  /// Syndrome of the error pattern (data_mask, check_mask).
  std::uint8_t fold(std::uint64_t d, std::uint8_t check_mask) const noexcept {
    return static_cast<std::uint8_t>(
        check_mask ^ byte_fold[0][d & 0xff] ^ byte_fold[1][(d >> 8) & 0xff] ^
        byte_fold[2][(d >> 16) & 0xff] ^ byte_fold[3][(d >> 24) & 0xff] ^
        byte_fold[4][(d >> 32) & 0xff] ^ byte_fold[5][(d >> 40) & 0xff] ^
        byte_fold[6][(d >> 48) & 0xff] ^ byte_fold[7][(d >> 56) & 0xff]);
  }
};

const SecDedCodec::Tables& SecDedCodec::tables() noexcept {
  static const Tables t;
  return t;
}

std::uint8_t SecDedCodec::column(std::uint32_t data_bit) noexcept {
  return tables().columns[data_bit & 63];
}

std::uint8_t SecDedCodec::compute_check(std::uint64_t data) noexcept {
  const auto& t = tables();
  std::uint8_t check = 0;
  std::uint64_t bits = data;
  while (bits != 0) {
    const int i = std::countr_zero(bits);
    check ^= t.columns[static_cast<std::size_t>(i)];
    bits &= bits - 1;
  }
  return check;
}

SecDedWord SecDedCodec::encode(std::uint64_t data) noexcept {
  return SecDedWord{data, compute_check(data)};
}

DecodeResult SecDedCodec::decode(const SecDedWord& word) noexcept {
  const auto& t = tables();
  DecodeResult r;
  r.data = word.data;
  const std::uint8_t syndrome =
      static_cast<std::uint8_t>(compute_check(word.data) ^ word.check);
  if (syndrome == 0) {
    r.status = DecodeStatus::Clean;
    return r;
  }
  // Hsiao decode rule: an odd-weight syndrome matching a column is
  // treated as the corresponding single-bit error; everything else is a
  // detected (assumed-double) error.
  const std::uint8_t hit = t.syndrome_to_bit[syndrome];
  if (hit != 0) {
    const std::uint32_t bit = hit - 1u;
    r.status = DecodeStatus::Corrected;
    r.corrected_bit = bit;
    if (bit < 64) r.data = ftspm::flip_bit(word.data, bit);
    // A corrected check bit leaves the data untouched.
    return r;
  }
  r.status = DecodeStatus::Detected;
  return r;
}

PatternDecode SecDedCodec::classify_pattern(std::uint64_t data_mask,
                                            std::uint8_t check_mask) noexcept {
  const auto& t = tables();
  const SyndromeDecode& o = t.outcome[t.fold(data_mask, check_mask)];
  return PatternDecode{o.status, o.correction_mask,
                       data_mask ^ o.correction_mask};
}

void SecDedCodec::fold_syndromes(const std::uint64_t* data_masks,
                                 const std::uint8_t* check_masks,
                                 std::size_t count,
                                 std::uint8_t* syndromes) noexcept {
  const auto& t = tables();
  for (std::size_t i = 0; i < count; ++i)
    syndromes[i] = t.fold(data_masks[i], check_masks[i]);
}

const char* SecDedCodec::fold_backend() noexcept { return "scalar"; }

void SecDedCodec::flip_bit(SecDedWord& word, std::uint32_t bit) {
  FTSPM_REQUIRE(bit < kCodewordBits, "SEC-DED codeword bit out of range");
  if (bit < 64) {
    word.data = ftspm::flip_bit(word.data, bit);
  } else {
    word.check = static_cast<std::uint8_t>(word.check ^ (1u << (bit - 64)));
  }
}

}  // namespace ftspm
