// Batched parity syndrome folding (ParityCodec::fold_parity).
//
// A parity word's whole verdict is one bit — the XOR-reduce of its
// 64-bit error mask folded with the flipped-parity bit — so the batch
// kernel is a pure map: out[i] = parity64(data[i]) ^ (parity[i] & 1),
// one popcount (or, on baseline x86-64 without POPCNT, a ~12-op bit
// fold) per element. Pinned against classify_pattern by
// tests/ecc/pattern_equivalence_test.cpp.
#include <cstddef>
#include <cstdint>

#include "ftspm/ecc/parity_codec.h"
#include "ftspm/util/bitops.h"

namespace ftspm {

void ParityCodec::fold_parity(const std::uint64_t* data_masks,
                              const std::uint8_t* parity_masks,
                              std::size_t count, std::uint8_t* out) noexcept {
  for (std::size_t i = 0; i < count; ++i)
    out[i] = static_cast<std::uint8_t>(parity64(data_masks[i]) ^
                                       (parity_masks[i] & 1));
}

void ParityCodec::classify_pattern_batch(const std::uint64_t* data_masks,
                                         const std::uint8_t* parity_masks,
                                         std::size_t count,
                                         PatternDecode* out) noexcept {
  std::uint8_t syndromes[256];
  for (std::size_t base = 0; base < count; base += sizeof(syndromes)) {
    const std::size_t n = count - base < sizeof(syndromes)
                              ? count - base
                              : sizeof(syndromes);
    fold_parity(data_masks + base, parity_masks + base, n, syndromes);
    for (std::size_t k = 0; k < n; ++k) {
      out[base + k] = PatternDecode{syndromes[k] != 0 ? DecodeStatus::Detected
                                                      : DecodeStatus::Clean,
                                    0, data_masks[base + k]};
    }
  }
}

}  // namespace ftspm
