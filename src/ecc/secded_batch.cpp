// Batched Hsiao SEC-DED syndrome folding.
//
// The batched campaign engine (src/fault) classifies most strikes with
// a couple of popcounts, but every word pattern touching >= 3 surviving
// bits still needs its real syndrome. Those patterns are collected into
// structure-of-arrays blocks and folded here, whole arrays at a time:
// 8 byte-table lookups per pattern (byte_fold[j][byte j of the data
// mask], XOR-reduced with the check-bit mask) — branch-free table code
// the compiler is free to vectorize. Pinned against classify_pattern by
// tests/ecc/pattern_equivalence_test.cpp.
#include <array>
#include <cstddef>
#include <cstdint>

#include "ftspm/ecc/secded_codec.h"

namespace ftspm {

namespace {

/// byte_fold[j][b] is the XOR of the Hsiao H-matrix columns guarding
/// data bits 8j..8j+7 selected by the bits of b.
struct FoldTables {
  std::uint8_t byte_fold[8][256];

  FoldTables() {
    for (std::uint32_t j = 0; j < 8; ++j) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint8_t fold = 0;
        for (std::uint32_t i = 0; i < 8; ++i)
          if (b & (1u << i)) fold ^= SecDedCodec::column(8 * j + i);
        byte_fold[j][b] = fold;
      }
    }
  }
};

const FoldTables& fold_tables() noexcept {
  static const FoldTables t;
  return t;
}

}  // namespace

void SecDedCodec::fold_syndromes(const std::uint64_t* data_masks,
                                 const std::uint8_t* check_masks,
                                 std::size_t count,
                                 std::uint8_t* syndromes) noexcept {
  const FoldTables& t = fold_tables();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t d = data_masks[i];
    syndromes[i] = static_cast<std::uint8_t>(
        check_masks[i] ^ t.byte_fold[0][d & 0xff] ^
        t.byte_fold[1][(d >> 8) & 0xff] ^ t.byte_fold[2][(d >> 16) & 0xff] ^
        t.byte_fold[3][(d >> 24) & 0xff] ^ t.byte_fold[4][(d >> 32) & 0xff] ^
        t.byte_fold[5][(d >> 40) & 0xff] ^ t.byte_fold[6][(d >> 48) & 0xff] ^
        t.byte_fold[7][(d >> 56) & 0xff]);
  }
}

void SecDedCodec::classify_pattern_batch(const std::uint64_t* data_masks,
                                         const std::uint8_t* check_masks,
                                         std::size_t count,
                                         PatternDecode* out) noexcept {
  const std::array<SyndromeDecode, 256>& table = syndrome_table();
  std::uint8_t syndromes[256];
  for (std::size_t base = 0; base < count; base += sizeof(syndromes)) {
    const std::size_t n = count - base < sizeof(syndromes)
                              ? count - base
                              : sizeof(syndromes);
    fold_syndromes(data_masks + base, check_masks + base, n, syndromes);
    for (std::size_t k = 0; k < n; ++k) {
      const SyndromeDecode& o = table[syndromes[k]];
      out[base + k] = PatternDecode{o.status, o.correction_mask,
                                    data_masks[base + k] ^ o.correction_mask};
    }
  }
}

const char* SecDedCodec::fold_backend() noexcept { return "scalar"; }

}  // namespace ftspm
