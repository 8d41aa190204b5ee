#include "ftspm/ecc/parity_codec.h"

#include "ftspm/util/bitops.h"
#include "ftspm/util/error.h"

namespace ftspm {

ParityWord ParityCodec::encode(std::uint64_t data) noexcept {
  ParityWord w;
  w.data = data;
  w.parity = static_cast<std::uint8_t>(parity64(data));
  return w;
}

DecodeResult ParityCodec::decode(const ParityWord& word) noexcept {
  DecodeResult r;
  r.data = word.data;
  const int total = parity64(word.data) ^ (word.parity & 1);
  r.status = (total == 0) ? DecodeStatus::Clean : DecodeStatus::Detected;
  return r;
}

PatternDecode ParityCodec::classify_pattern(
    std::uint64_t data_mask, std::uint8_t parity_mask) noexcept {
  // Parity never corrects, so the consumer always sees the raw error.
  const int syndrome = parity64(data_mask) ^ (parity_mask & 1);
  return PatternDecode{
      syndrome != 0 ? DecodeStatus::Detected : DecodeStatus::Clean, 0,
      data_mask};
}

void ParityCodec::flip_bit(ParityWord& word, std::uint32_t bit) {
  FTSPM_REQUIRE(bit < kCodewordBits, "parity codeword bit out of range");
  if (bit < 64) {
    word.data = ftspm::flip_bit(word.data, bit);
  } else {
    word.parity ^= 1;
  }
}

}  // namespace ftspm
