// Exhaustive equivalence of the syndrome-kernel fast path
// (classify_pattern) against the encode/flip/decode oracle: every 1-,
// 2-, and 3-bit error pattern over the full 72-bit SEC-DED codeword
// and the 65-bit parity word, each checked against several stored
// originals to witness the linearity argument — the pattern alone
// determines the outcome, the data never does. The array fold
// (fold_syndromes) is then driven over the same exhaustive SEC-DED
// pattern set at several batch sizes, including 1 and ragged tails.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "ftspm/ecc/parity_codec.h"
#include "ftspm/ecc/secded_codec.h"

namespace ftspm {
namespace {

constexpr std::array<std::uint64_t, 4> kOriginals = {
    0x0ULL, ~0x0ULL, 0xDEADBEEF12345678ULL, 0x0123456789ABCDEFULL};

struct Pattern {
  std::uint64_t data_mask = 0;
  std::uint8_t check_mask = 0;
};

Pattern make_pattern(const std::vector<std::uint32_t>& bits) {
  Pattern p;
  for (const std::uint32_t b : bits) {
    if (b < 64)
      p.data_mask |= 1ULL << b;
    else
      p.check_mask = static_cast<std::uint8_t>(p.check_mask | (1u << (b - 64)));
  }
  return p;
}

/// Runs `fn` over every distinct 1-, 2-, and 3-bit subset of
/// codeword bits [0, width).
template <typename Fn>
void for_each_pattern(std::uint32_t width, Fn&& fn) {
  for (std::uint32_t a = 0; a < width; ++a) {
    fn(std::vector<std::uint32_t>{a});
    for (std::uint32_t b = a + 1; b < width; ++b) {
      fn(std::vector<std::uint32_t>{a, b});
      for (std::uint32_t c = b + 1; c < width; ++c)
        fn(std::vector<std::uint32_t>{a, b, c});
    }
  }
}

TEST(PatternEquivalence, SecDedMatchesOracleForAllTripleFlips) {
  std::uint64_t patterns = 0;
  for_each_pattern(SecDedCodec::kCodewordBits,
                   [&](const std::vector<std::uint32_t>& bits) {
    ++patterns;
    const Pattern p = make_pattern(bits);
    const PatternDecode fast =
        SecDedCodec::classify_pattern(p.data_mask, p.check_mask);
    for (const std::uint64_t original : kOriginals) {
      SecDedWord w = SecDedCodec::encode(original);
      for (const std::uint32_t b : bits) SecDedCodec::flip_bit(w, b);
      const DecodeResult oracle = SecDedCodec::decode(w);
      ASSERT_EQ(fast.status, oracle.status)
          << "data_mask=" << p.data_mask << " original=" << original;
      ASSERT_EQ(fast.data_intact(), oracle.data == original)
          << "data_mask=" << p.data_mask << " original=" << original;
      // The decoded word is always original ^ residual (linearity).
      ASSERT_EQ(oracle.data, original ^ fast.residual_mask)
          << "data_mask=" << p.data_mask << " original=" << original;
    }
  });
  // 72 + C(72,2) + C(72,3) distinct patterns, none skipped.
  EXPECT_EQ(patterns, 72u + 2556u + 59640u);
}

TEST(PatternEquivalence, ParityMatchesOracleForAllTripleFlips) {
  std::uint64_t patterns = 0;
  for_each_pattern(ParityCodec::kCodewordBits,
                   [&](const std::vector<std::uint32_t>& bits) {
    ++patterns;
    const Pattern p = make_pattern(bits);
    const PatternDecode fast =
        ParityCodec::classify_pattern(p.data_mask, p.check_mask);
    for (const std::uint64_t original : kOriginals) {
      ParityWord w = ParityCodec::encode(original);
      for (const std::uint32_t b : bits) ParityCodec::flip_bit(w, b);
      const DecodeResult oracle = ParityCodec::decode(w);
      ASSERT_EQ(fast.status, oracle.status)
          << "data_mask=" << p.data_mask << " original=" << original;
      ASSERT_EQ(fast.data_intact(), oracle.data == original)
          << "data_mask=" << p.data_mask << " original=" << original;
      ASSERT_EQ(oracle.data, original ^ fast.residual_mask)
          << "data_mask=" << p.data_mask << " original=" << original;
    }
  });
  EXPECT_EQ(patterns, 65u + 2080u + 43680u);
}

TEST(PatternEquivalence, EmptyPatternIsClean) {
  const PatternDecode secded = SecDedCodec::classify_pattern(0, 0);
  EXPECT_EQ(secded.status, DecodeStatus::Clean);
  EXPECT_EQ(secded.correction_mask, 0u);
  EXPECT_TRUE(secded.data_intact());
  const PatternDecode parity = ParityCodec::classify_pattern(0, 0);
  EXPECT_EQ(parity.status, DecodeStatus::Clean);
  EXPECT_TRUE(parity.data_intact());
}

// The outcome LUT's correction masks must point at the flipped bit
// itself for every single-bit data error (Hsiao columns are distinct).
TEST(PatternEquivalence, SingleBitCorrectionTargetsTheFlippedBit) {
  for (std::uint32_t b = 0; b < 64; ++b) {
    const PatternDecode p = SecDedCodec::classify_pattern(1ULL << b, 0);
    EXPECT_EQ(p.status, DecodeStatus::Corrected);
    EXPECT_EQ(p.correction_mask, 1ULL << b);
    EXPECT_EQ(p.residual_mask, 0u);
  }
  for (std::uint32_t c = 0; c < 8; ++c) {
    const PatternDecode p = SecDedCodec::classify_pattern(
        0, static_cast<std::uint8_t>(1u << c));
    EXPECT_EQ(p.status, DecodeStatus::Corrected);
    EXPECT_EQ(p.correction_mask, 0u);  // check-bit repair, data untouched
    EXPECT_TRUE(p.data_intact());
  }
}

// ---- The array fold: the same exhaustive pattern set pushed through
// fold_syndromes in blocks of several sizes. 1 exercises the
// degenerate batch, 5 and 33 leave ragged tails, 256 and 333 are
// larger blocks, one a deliberate non-power-of-two.
constexpr std::array<std::size_t, 5> kBatchSizes = {1, 5, 33, 256, 333};

/// Collects every 1/2/3-bit pattern over `width` bits in SoA form.
struct PatternSet {
  std::vector<std::uint64_t> data;
  std::vector<std::uint8_t> check;
};

PatternSet all_patterns(std::uint32_t width) {
  PatternSet set;
  for_each_pattern(width, [&](const std::vector<std::uint32_t>& bits) {
    const Pattern p = make_pattern(bits);
    set.data.push_back(p.data_mask);
    set.check.push_back(p.check_mask);
  });
  return set;
}

TEST(PatternEquivalence, FoldSyndromesMatchPerWordSyndromes) {
  // The byte-table fold must produce, at every batch size and over the
  // exhaustive pattern set, the syndrome the H-matrix gives word by
  // word: check bits recomputed from the data mask, XOR the flipped
  // check bits (the code is linear).
  const PatternSet set = all_patterns(SecDedCodec::kCodewordBits);
  const std::size_t total = set.data.size();
  std::vector<std::uint8_t> want(total), got(total);
  for (std::size_t i = 0; i < total; ++i)
    want[i] = static_cast<std::uint8_t>(
        SecDedCodec::compute_check(set.data[i]) ^ set.check[i]);
  for (const std::size_t batch : kBatchSizes) {
    std::fill(got.begin(), got.end(), 0xA5);
    for (std::size_t base = 0; base < total; base += batch) {
      const std::size_t n = std::min(batch, total - base);
      SecDedCodec::fold_syndromes(set.data.data() + base,
                                  set.check.data() + base, n,
                                  got.data() + base);
    }
    EXPECT_EQ(got, want) << "batch " << batch;
  }
  EXPECT_STREQ(SecDedCodec::fold_backend(), "scalar");
}

}  // namespace
}  // namespace ftspm
