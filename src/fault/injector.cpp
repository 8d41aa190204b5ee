#include "ftspm/fault/injector.h"

#include <algorithm>
#include <utility>

#include "ftspm/ecc/secded_codec.h"
#include "ftspm/fault/batch_engine.h"
#include "ftspm/util/bitops.h"
#include "ftspm/util/error.h"

namespace ftspm {

const char* to_string(StrikeOutcome outcome) noexcept {
  switch (outcome) {
    case StrikeOutcome::Masked: return "masked";
    case StrikeOutcome::Dre: return "DRE";
    case StrikeOutcome::Due: return "DUE";
    case StrikeOutcome::Sdc: return "SDC";
  }
  return "?";
}

PhysicalBit locate_strike_bit(const InjectionRegion& region,
                              std::uint64_t i) {
  const std::uint32_t cw = region.geometry.codeword_bits();
  if (region.interleave <= 1) return region.geometry.locate(i);
  const std::uint64_t group_bits =
      static_cast<std::uint64_t>(cw) * region.interleave;
  const std::uint64_t group = i / group_bits;
  const std::uint64_t within = i % group_bits;
  PhysicalBit pb;
  pb.word_index = group * region.interleave + (within % region.interleave);
  pb.bit_in_codeword = static_cast<std::uint32_t>(within / region.interleave);
  return pb;
}

namespace detail {

StrikeOutcome word_outcome(ProtectionKind protection, std::uint64_t data_mask,
                           std::uint32_t check_mask) {
  switch (protection) {
    case ProtectionKind::Immune:
      return StrikeOutcome::Masked;
    case ProtectionKind::None:
      // No check bits: any flip silently corrupts the stored word.
      return (data_mask | check_mask) != 0 ? StrikeOutcome::Sdc
                                           : StrikeOutcome::Masked;
    case ProtectionKind::Parity:
      // The whole parity verdict is the syndrome bit: odd flips trip
      // the check, even flips pass and corrupt any flipped data bit.
      if ((parity64(data_mask) ^ (check_mask & 1)) != 0)
        return StrikeOutcome::Due;
      return data_mask != 0 ? StrikeOutcome::Sdc : StrikeOutcome::Masked;
    case ProtectionKind::SecDed: {
      const PatternDecode p = SecDedCodec::classify_pattern(
          data_mask, static_cast<std::uint8_t>(check_mask));
      switch (p.status) {
        case DecodeStatus::Clean:
          return p.data_intact() ? StrikeOutcome::Masked : StrikeOutcome::Sdc;
        case DecodeStatus::Corrected:
          return p.data_intact() ? StrikeOutcome::Dre : StrikeOutcome::Sdc;
        case DecodeStatus::Detected:
          return StrikeOutcome::Due;
      }
      return StrikeOutcome::Sdc;
    }
  }
  throw InvalidArgument("unknown protection kind");
}

}  // namespace detail

namespace {

/// Classifies one struck codeword from its error pattern alone (the
/// codecs are linear, so stored data is irrelevant — see
/// PatternDecode). `check_mask` holds the flipped check bits shifted
/// down to bit 0.
StrikeOutcome classify_word_pattern(ProtectionKind protection,
                                    std::uint64_t data_mask,
                                    std::uint32_t check_mask, Rng& rng) {
  // Immune words never reach here from classify_strike (it returns
  // before gathering hits), so no draw happens on this path and
  // skipping it cannot perturb any established RNG stream.
  if (protection == ProtectionKind::Immune) return StrikeOutcome::Masked;
  // The oracle drew the word's original contents here. The outcome
  // never depended on that value (linearity) — including for
  // unprotected words, where it was always wasted — but the draw is
  // retained so RNG streams, and therefore campaign counters at a
  // fixed seed, stay bit-identical with the pre-kernel implementation.
  // Any future hot-loop change must preserve this draw order; see
  // docs/performance.md.
  (void)rng.next_u64();
  return detail::word_outcome(protection, data_mask, check_mask);
}

using WordHit = std::pair<std::uint64_t, std::uint32_t>;

/// Classifies the gathered, word-sorted hits of one strike by folding
/// each codeword's hits into (data_mask, check_mask) and running the
/// syndrome kernel. One RNG draw per struck word, like the oracle.
StrikeOutcome classify_hits(ProtectionKind protection, const WordHit* hits,
                            std::size_t count, Rng& rng) {
  StrikeOutcome worst = StrikeOutcome::Masked;
  std::size_t i = 0;
  while (i < count) {
    const std::uint64_t word = hits[i].first;
    std::uint64_t data_mask = 0;
    std::uint32_t check_mask = 0;
    for (; i < count && hits[i].first == word; ++i) {
      const std::uint32_t bit = hits[i].second;
      if (bit < RegionGeometry::kDataBitsPerWord)
        data_mask |= 1ULL << bit;
      else
        check_mask |= 1u << (bit - RegionGeometry::kDataBitsPerWord);
    }
    worst = std::max(worst,
                     classify_word_pattern(protection, data_mask, check_mask,
                                           rng));
  }
  return worst;
}

/// Gathers a strike's surviving flips into `hits` (clipped at the array
/// edge, interleave-aware) and sorts them by word. `hits` must hold
/// `flips` entries. Small strike footprints make insertion sort the
/// right tool — the common multiplicities are 1-4 hits.
std::size_t gather_hits(const InjectionRegion& region,
                        std::uint64_t first_bit, std::uint32_t flips,
                        std::uint64_t surface, WordHit* hits) {
  std::size_t n = 0;
  for (std::uint32_t k = 0; k < flips && first_bit + k < surface; ++k) {
    const PhysicalBit pb = locate_strike_bit(region, first_bit + k);
    if (pb.word_index >= region.geometry.words()) continue;
    hits[n++] = WordHit{pb.word_index, pb.bit_in_codeword};
  }
  for (std::size_t i = 1; i < n; ++i) {
    const WordHit h = hits[i];
    std::size_t j = i;
    for (; j > 0 && hits[j - 1].first > h.first; --j) hits[j] = hits[j - 1];
    hits[j] = h;
  }
  return n;
}

}  // namespace

StrikeOutcome classify_strike(const InjectionRegion& region,
                              std::uint64_t first_bit, std::uint32_t flips,
                              Rng& rng, CampaignScratch& scratch) {
  FTSPM_REQUIRE(flips >= 1, "a strike flips at least one bit");
  if (region.protection == ProtectionKind::Immune)
    return StrikeOutcome::Masked;

  const std::uint64_t surface = region.geometry.physical_bits();
  FTSPM_REQUIRE(first_bit < surface, "strike origin outside the region");

  WordHit* hits = scratch.hits.data();
  if (flips > CampaignScratch::kInlineHits) {
    scratch.spill.clear();
    scratch.spill.resize(flips);
    hits = scratch.spill.data();
  }
  const std::size_t n = gather_hits(region, first_bit, flips, surface, hits);
  return classify_hits(region.protection, hits, n, rng);
}

StrikeOutcome classify_strike(const InjectionRegion& region,
                              std::uint64_t first_bit, std::uint32_t flips,
                              Rng& rng) {
  // The inline hit array lives on the stack; only pathological flip
  // counts (> kInlineHits) cost an allocation on this scratch-less
  // convenience overload.
  CampaignScratch scratch;
  return classify_strike(region, first_bit, flips, rng, scratch);
}

CampaignShardState begin_campaign_shard(std::uint64_t seed) noexcept {
  CampaignShardState state;
  state.rng = Rng(seed);
  return state;
}

// run_campaign_chunk — the chunk engine — lives in injector_batch.cpp.

}  // namespace ftspm
