// Internal machinery of the campaign chunk engines.
//
// The static-campaign engine (injector_batch.cpp) replaces the
// per-strike FP draw pipeline with exact integer-domain equivalents:
// region picks as compares against precomputed subtract-scan
// breakpoints, Bernoulli trials as compares against ceil(p * 2^53),
// and flip multiplicities as compares against cumulative cutoffs, all
// built once per chunk. The live-array recovery and temporal campaigns
// run their strike loops on the same machinery — one region table, one
// run splitter, one interleaved-hit gatherer — so the shared pieces
// live here. Every engine resolves each strike where it lands, in one
// pass; nothing is parked between strikes. Everything in ftspm::detail
// is an implementation detail of the campaign engines — not API — but the equivalences are load-bearing: each helper is
// bit-identical to the Rng primitive it replaces (see
// docs/performance.md, "Integer-domain draws", and
// tests/fault/batch_engine_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ftspm/fault/injector.h"
#include "ftspm/fault/strike_model.h"
#include "ftspm/util/rng.h"

namespace ftspm {
namespace detail {

/// One draw past the largest value next_double() can yield: draw bits
/// (x >> 11) live in [0, 2^53).
inline constexpr std::uint64_t kDrawBitsEnd = std::uint64_t{1} << 53;

/// ceil(p * 2^53), the integer-domain image of a [0, 1] probability:
/// `next_double() < p  <=>  (x >> 11) < ceil(p * 2^53)`. The product
/// is exact (a double times a power of two only shifts the exponent),
/// and an integer is below a real threshold iff below its ceiling, so
/// the raw-bits comparison is bit-identical to the double one while
/// resolving ~10 cycles earlier.
inline std::uint64_t prob_to_draw_bits(double p) noexcept {
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/// The DrawBernoulli (injector.h) of probability p.
inline DrawBernoulli make_draw_bernoulli(double p) noexcept {
  DrawBernoulli b;
  b.mode = p <= 0.0 ? std::uint8_t{0} : p >= 1.0 ? std::uint8_t{1}
                                                 : std::uint8_t{2};
  if (b.mode == 2) b.bits = prob_to_draw_bits(p);
  return b;
}

/// Draws (or doesn't) exactly as Rng::next_bool(p) would for the
/// probability `b` was built from.
inline bool draw_bernoulli(Rng& rng, const DrawBernoulli& b) noexcept {
  if (b.mode == 2) return (rng.next_u64() >> 11) < b.bits;
  return b.mode != 0;
}

/// (data, check) masks of one contiguous struck run [lo, hi) within a
/// codeword, branchless: an empty half shifts a zero mask (the & 63
/// keeps the shift defined when the data half is empty). Exact for
/// every geometry: RegionGeometry caps check bits at 16, so the check
/// span always fits the 32-bit shift.
struct GroupMasks {
  std::uint64_t data;
  std::uint32_t check;
};

inline GroupMasks group_masks(std::uint32_t lo, std::uint32_t hi) noexcept {
  const std::uint32_t lo_d = std::min(lo, RegionGeometry::kDataBitsPerWord);
  const std::uint32_t hi_d = std::min(hi, RegionGeometry::kDataBitsPerWord);
  const std::uint32_t len_d = hi_d - lo_d;
  const std::uint64_t data =
      (len_d >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << len_d) - 1)
      << (lo_d & 63);
  const std::uint32_t lo_c = std::max(lo, RegionGeometry::kDataBitsPerWord) -
                             RegionGeometry::kDataBitsPerWord;
  const std::uint32_t hi_c = std::max(hi, RegionGeometry::kDataBitsPerWord) -
                             RegionGeometry::kDataBitsPerWord;
  const std::uint32_t check = ((1u << (hi_c - lo_c)) - 1) << lo_c;
  return GroupMasks{data, check};
}

/// Recovers Rng::next_discrete's decision boundaries in draw-bits
/// space: pick_bits[k] is the smallest u_bits = x >> 11 whose
/// subtract-scan partial k is non-negative (kDrawBitsEnd when none
/// is), found by per-chunk binary search over the 2^53 draw grid;
/// `fallback` is the scan's underflow fallback (the last positive
/// weight). Pads pick_bits with never-reached sentinels to at least 4
/// entries so pick_region can run a fixed unrolled compare for the
/// common small mixes. Weights must contain at least one positive
/// entry summing to `total` exactly as the caller accumulated it.
void build_pick_bits(const std::vector<double>& weights, double total,
                     std::vector<std::uint64_t>& pick_bits,
                     std::size_t& fallback);

/// The discrete region pick, replicating Rng::next_discrete's
/// subtract-scan (and its underflow fallback) bit for bit via the
/// precomputed draw-bits breakpoints. Branch-free over the table: the
/// partials only decrease down the scan, so the count of
/// draws-at-or-past-breakpoint equals the count of non-negative
/// partials — the scan's answer.
inline std::size_t pick_region(Rng& rng, const std::uint64_t* breaks,
                               std::size_t count,
                               std::size_t fallback) noexcept {
  const std::uint64_t ub = rng.next_u64() >> 11;
  std::size_t idx;
  if (count <= 4) {
    idx = static_cast<std::size_t>(ub >= breaks[0]) +
          static_cast<std::size_t>(ub >= breaks[1]) +
          static_cast<std::size_t>(ub >= breaks[2]) +
          static_cast<std::size_t>(ub >= breaks[3]);
  } else {
    idx = 0;
    for (std::size_t i = 0; i < count; ++i) idx += ub >= breaks[i] ? 1 : 0;
  }
  return idx >= count ? fallback : idx;
}

/// StrikeMultiplicityModel::sample_flips' cumulative cutoffs mapped to
/// the draw-bits domain, associating the sums exactly as sample_flips
/// does (c3 = (p1 + p2) + p3) so every comparison sees the identical
/// double.
struct FlipCutoffs {
  std::uint64_t b1 = 0;
  std::uint64_t b2 = 0;
  std::uint64_t b3 = 0;
};

/// Builds the cutoffs, hoisting the validation sample_flips re-ran per
/// strike (max_flips must fit the >3 tail; cutoffs must be monotone).
FlipCutoffs make_flip_cutoffs(const StrikeMultiplicityModel& strikes,
                              std::uint32_t max_flips);

/// sample_flips inlined draw for draw in the draw-bits domain: the
/// if-chain `u < c1 -> 1, ...` with the branches folded into flag
/// adds; only the rare >3-bit tail still loops, one next_u64 per coin
/// flip exactly as next_bool(0.5) draws.
inline std::uint32_t sample_flips_draw(Rng& rng, const FlipCutoffs& c,
                                       std::uint32_t max_flips) noexcept {
  // next_bool(0.5) of the >3-bit tail: u < 0.5 <=> draw bits < 2^52.
  constexpr std::uint64_t kHalfBits = std::uint64_t{1} << 52;
  const std::uint64_t ub = rng.next_u64() >> 11;
  std::uint32_t flips = 1 + static_cast<std::uint32_t>(ub >= c.b1) +
                        static_cast<std::uint32_t>(ub >= c.b2) +
                        static_cast<std::uint32_t>(ub >= c.b3);
  if (flips == 4)
    while (flips < max_flips && (rng.next_u64() >> 11) < kHalfBits) ++flips;
  return flips;
}

/// One region's row of the constant table, with the validation the
/// per-strike loop ran.
BatchRegionInfo make_region_info(const InjectionRegion& region);

/// Rebuilds the per-region constant table (allocation-free after the
/// first chunk) and the region-pick breakpoints (build_pick_bits) into
/// `batch`. `surface` projects an element of `regions` onto its
/// InjectionRegion: the identity for the static and temporal surfaces,
/// &RecoveryRegion::inject for the live-array recovery campaign.
template <class Region, class Surface = std::identity>
void build_region_table(const std::vector<Region>& regions,
                        CampaignScratch::Batch& batch, Surface surface = {}) {
  batch.regions.clear();
  batch.weights.clear();
  // next_discrete accumulated the total left to right on every strike;
  // the breakpoints must see the identical sum.
  double total = 0.0;
  for (const Region& r : regions) {
    const BatchRegionInfo& info =
        batch.regions.emplace_back(make_region_info(std::invoke(surface, r)));
    const auto weight = static_cast<double>(info.physical_bits);
    total += weight;
    batch.weights.push_back(weight);
  }
  build_pick_bits(batch.weights, total, batch.pick_bits, batch.pick_fallback);
}

/// Splits an uninterleaved strike's `m` flips (already clipped at the
/// surface edge) from `origin` into per-codeword runs: calls
/// `fn(word, lo, hi)` once per struck codeword, ascending, with
/// [lo, hi) the run's bits within that codeword (group_masks(lo, hi)
/// its masks).
template <class Fn>
inline void for_each_run(const BatchRegionInfo& R, std::uint64_t origin,
                         std::uint64_t m, Fn&& fn) {
  std::uint64_t word = R.div_codeword.divide(origin);
  auto lo = static_cast<std::uint32_t>(origin - word * R.codeword_bits);
  while (m > 0) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(R.codeword_bits - lo, m));
    fn(word, lo, lo + len);
    m -= len;
    lo = 0;
    ++word;
  }
}

/// Gathers an interleaved strike's flips [origin, origin + flips),
/// clipped at the surface edge, as (word, bit-in-codeword) hits:
/// locate_strike_bit's arithmetic with the divides replaced by the
/// magic multiply, hits past the last word (a partial final group)
/// dropped. The hits go to scratch.hits (scratch.spill past
/// kInlineHits) and are insertion-sorted by word — near-sorted input,
/// since consecutive bits rotate over `interleave` words — then
/// `fn(word, GroupMasks)` is called once per struck codeword,
/// ascending, with the OR of its hits.
template <class Fn>
void for_each_interleaved_word(const BatchRegionInfo& R,
                               CampaignScratch& scratch, std::uint64_t origin,
                               std::uint32_t flips, Fn&& fn) {
  using WordHit = std::pair<std::uint64_t, std::uint32_t>;
  WordHit* hits = scratch.hits.data();
  if (flips > CampaignScratch::kInlineHits) {
    scratch.spill.clear();
    scratch.spill.resize(flips);
    hits = scratch.spill.data();
  }
  std::size_t n = 0;
  for (std::uint32_t k = 0; k < flips && origin + k < R.physical_bits; ++k) {
    const std::uint64_t g = origin + k;
    const std::uint64_t group = R.div_group.divide(g);
    const std::uint64_t within = g - group * R.group_bits;
    const std::uint64_t word =
        group * R.interleave + R.div_interleave.modulo(within);
    if (word >= R.words) continue;
    hits[n++] = WordHit{
        word, static_cast<std::uint32_t>(R.div_interleave.divide(within))};
  }
  for (std::size_t i = 1; i < n; ++i) {
    const WordHit h = hits[i];
    std::size_t j = i;
    for (; j > 0 && hits[j - 1].first > h.first; --j) hits[j] = hits[j - 1];
    hits[j] = h;
  }
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t word = hits[i].first;
    GroupMasks gm{0, 0};
    for (; i < n && hits[i].first == word; ++i) {
      const std::uint32_t b = hits[i].second;
      if (b < RegionGeometry::kDataBitsPerWord)
        gm.data |= std::uint64_t{1} << b;
      else
        gm.check |= 1u << (b - RegionGeometry::kDataBitsPerWord);
    }
    fn(word, gm);
  }
}

/// The epilogue every chunk engine shares: flushes the chunk's outcome
/// tallies, its generator and its progress into the shard state.
inline void finish_chunk(CampaignShardState& state, std::uint64_t end,
                         const Rng& rng, std::uint64_t masked,
                         std::uint64_t dre, std::uint64_t due,
                         std::uint64_t sdc) noexcept {
  state.partial.strikes += end - state.done;
  state.partial.masked += masked;
  state.partial.dre += dre;
  state.partial.due += due;
  state.partial.sdc += sdc;
  state.rng = rng;
  state.done = end;
}

/// Pre-ACE outcome of one struck codeword from its error pattern alone
/// (the codecs are linear, so stored data never matters): what
/// classify_strike decides per word, without its draw. `check_mask`
/// holds the flipped check bits shifted down to bit 0 (cast to 8 bits
/// for SEC-DED); Immune words are Masked. Parity is one parity64 of the
/// pattern, SEC-DED one SecDedCodec::classify_pattern call.
StrikeOutcome word_outcome(ProtectionKind protection, std::uint64_t data_mask,
                           std::uint32_t check_mask);

/// Classifies one strike through the static engine's fast / straddle
/// / general paths against the region table entry `R` and returns its
/// pre-ACE worst outcome (StrikeOutcome values), >= 3-bit SEC-DED
/// patterns included — they are resolved through
/// SecDedCodec::classify_pattern on the spot. Burns exactly one
/// next_u64 per struck codeword — the documented RNG contract. The
/// caller owns the ACE-occupancy draw: `R.ace` must be the always-kept
/// arm (occupancy 1.0, no draw taken here), which is how the temporal
/// campaign applies its per-span ACE fractions after classification. Immune regions
/// early-out with no draw at all. A thin wrapper over the classifier
/// the static engine inlines into its strike loop (injector_batch.cpp).
std::uint8_t classify_batch_strike(const BatchRegionInfo& R, Rng& rng,
                                   CampaignScratch& scratch,
                                   std::uint64_t origin, std::uint32_t flips);

}  // namespace detail
}  // namespace ftspm
